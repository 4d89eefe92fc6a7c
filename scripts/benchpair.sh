#!/usr/bin/env bash
# benchpair.sh — paired parent/change runs of the repo benchmark
# (BENCHMARK.json, bench/e2e), the measurement a performance claim rests
# on (choosing-metrics §8).
#
#   scripts/benchpair.sh REF WORKLOAD PAIRS [POINT]
#
#   REF       the parent commit to compare against
#   WORKLOAD  a BENCHMARK.json workload name, or "all"
#   PAIRS     pairs of runs per workload (>= 10 for a claim)
#   POINT     optional path of the bench/history point to write; the
#             series is append-only, so an existing file is refused
#
# The change is the working tree's tracked and staged content (git stash
# create; `git add` new files first), or HEAD when the tree is clean.
# Both sides are unpacked (git archive) into throw-away directories under
# ${TMPDIR:-/tmp}, built once, and run one at a time under `timeout`
# (RUN_LIMIT seconds, default 600), alternating which side goes first.
# Per gated metric the script prints each side's median and quartiles,
# the ratio change/parent, and the pairs the change won. Every exit path
# removes the directories and kills anything still running out of them.
set -euo pipefail

if [ $# -lt 3 ]; then
	sed -n '2,21p' "$0" >&2
	exit 2
fi
ref=$1 workload=$2 pairs=$3 point=${4:-}
run_limit=${RUN_LIMIT:-600} # seconds one benchmark run may take

command -v python3 >/dev/null || { echo "benchpair: python3 is required for the statistics" >&2; exit 2; }
root=$(git rev-parse --show-toplevel)
cd "$root"
if [ -n "$point" ] && [ -e "$point" ]; then
	echo "benchpair: $point exists; bench/history is append-only" >&2
	exit 2
fi
parent_sha=$(git rev-parse --verify "$ref^{commit}")
change_sha=$(git stash create)
change_name="worktree@$(git rev-parse --short HEAD)"
if [ -z "$change_sha" ]; then
	change_sha=$(git rev-parse HEAD)
	change_name=$(git rev-parse --short HEAD)
fi

tmp=$(mktemp -d "${TMPDIR:-/tmp}/benchpair.XXXXXX")
# leftover: is anything of ours still alive? Benchmark binaries and the
# advisord children they start all run out of $tmp; a killed child shows
# up by name only (a zombie has no command line) until init reaps it.
leftover() { pgrep -f "$tmp" >/dev/null || pgrep -x advisord >/dev/null; }
cleanup() {
	status=$?
	trap - EXIT INT TERM
	pkill -KILL -f "$tmp" 2>/dev/null || true
	for _ in $(seq 1 40); do
		leftover || break
		sleep 0.25
	done
	rm -rf "$tmp"
	if leftover; then
		echo "benchpair: a process is still running:" >&2
		pgrep -fl "$tmp" >&2 || true
		pgrep -xl advisord >&2 || true
		[ "$status" -ne 0 ] || status=1
	fi
	exit "$status"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

mkdir "$tmp/parent" "$tmp/change" "$tmp/bin" "$tmp/runs"
git archive "$parent_sha" | tar -x -C "$tmp/parent"
git archive "$change_sha" | tar -x -C "$tmp/change"
for side in parent change; do
	(cd "$tmp/$side" && go build -o "$tmp/bin/e2e-$side" ./bench/e2e)
done

if [ "$workload" = all ]; then
	workloads=$(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$root/BENCHMARK.json")
else
	workloads=$workload
fi

# run SIDE WORKLOAD OUT [flags...]: one benchmark run from the side's
# directory, waited for; its last stdout line is the contract JSON.
run() {
	local side=$1 wl=$2 out=$3
	shift 3
	(cd "$tmp/$side" && exec timeout -k 10 "$run_limit" "$tmp/bin/e2e-$side" -workload "$wl" "$@") >"$tmp/log" 2>"$tmp/err" &
	# Started with & and waited for, so that INT/TERM reach the trap while
	# the run is in flight (bash defers traps during a foreground command).
	wait $! || {
		echo "benchpair: $side run of $wl failed:" >&2
		tail -n 20 "$tmp/err" "$tmp/log" >&2
		return 1
	}
	tail -n 1 "$tmp/log" >"$out"
}

for wl in $workloads; do
	for i in $(seq 1 "$pairs"); do
		if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
		for side in $order; do
			run "$side" "$wl" "$tmp/runs/$wl.$i.$side.json"
		done
		echo "# $wl pair $i/$pairs done" >&2
	done
done

# One traced run of the change gives the host probes the point records
# (env.spin_ns, env.fsync_probe_us), so that host drift between points is
# visible.
probe_wl=${workloads%% *}
run change "$probe_wl" "$tmp/traced.json" -trace 1
cp "$tmp/change/.bench_build/e2e-report.json" "$tmp/traced-report.json"

python3 - "$root/BENCHMARK.json" "$tmp" "$pairs" "$parent_sha" "$change_name" "$point" $workloads <<'PY'
import datetime, json, re, statistics, sys

bench_path, tmp, pairs, parent_sha, change_name, point = sys.argv[1:7]
workloads, pairs = sys.argv[7:], int(pairs)
bench = json.load(open(bench_path))

def fmt(s):
    return f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"

def quartiles(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else (xs[0],) * 3
    return {"median": med, "q1": q1, "q3": q3, "runs": xs}

traced = json.load(open(f"{tmp}/traced-report.json"))
layer = {m["name"]: m["value"] for m in traced["results"][-1]["metrics"]}
out = {
    "point": point.rsplit("/", 1)[-1].removesuffix(".json"),
    "commit": change_name, "parent": parent_sha[:7], "date": datetime.date.today().isoformat(),
    "pairs": pairs, "run_seconds": bench["run_seconds"],
    "env": {"go": traced["sys"]["go_version"], "gomaxprocs": traced["sys"]["gomaxprocs"],
            "spin_ns": layer.get("env.spin_ns"), "fsync_probe_us": layer.get("env.fsync_probe_us")},
    "workloads": {},
}
print(f"\nparent {parent_sha[:7]}  change {change_name}  pairs {pairs}" + ("  (fewer than 10 pairs: no claim can rest on this)" if pairs < 10 else ""))
for wl in workloads:
    runs = {side: [json.load(open(f"{tmp}/runs/{wl}.{i}.{side}.json")) for i in range(1, pairs + 1)]
            for side in ("parent", "change")}
    rec = {"failed_ops": {s: sum(r["failed"] for r in rs) for s, rs in runs.items()},
           "attempted_ops": {s: sum(r["attempted"] for r in rs) for s, rs in runs.items()},
           "metrics": {}}
    print(f"\n{wl}: failed ops parent {rec['failed_ops']['parent']}/{rec['attempted_ops']['parent']}, "
          f"change {rec['failed_ops']['change']}/{rec['attempted_ops']['change']}")
    print(f"  {'metric':<18}{'parent med [q1, q3]':>34}{'change med [q1, q3]':>34}{'change/parent':>15}{'wins':>7}  verdict")
    for m in bench["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        p = [r["metrics"][name]["value"] for r in runs["parent"]]
        c = [r["metrics"][name]["value"] for r in runs["change"]]
        ps, cs = quartiles(p), quartiles(c)
        wins = sum((y < x) if lower else (y > x) for x, y in zip(p, c))
        ties = sum(x == y for x, y in zip(p, c))
        ratio = cs["median"] / ps["median"] if ps["median"] else float("nan")
        worse = (ratio - 1) if lower else (1 - ratio)
        iqr = ps["q3"] - ps["q1"]
        better = (ps["median"] - cs["median"]) if lower else (cs["median"] - ps["median"])
        if worse > m["bound"]:
            verdict = "REGRESSION beyond bound"
        elif pairs >= 10 and wins >= 0.9 * pairs and better > iqr:
            verdict = "gain (>=9/10 pairs, beyond parent IQR)"
        elif iqr > m["bound"] * ps["median"]:
            verdict = "unresolved (spread wider than bound)"
        else:
            verdict = "within bound"
        print(f"  {name:<18}{fmt(ps):>34}{fmt(cs):>34}{ratio:>15.3f}{wins:>4}/{pairs:<2}  {verdict}")
        rec["metrics"][name] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                                "parent": ps, "change": cs, "ratio_change_over_parent": ratio,
                                "wins": wins, "ties": ties, "verdict": verdict}
    out["workloads"][wl] = rec
if point:
    text = json.dumps(out, indent=1)
    # One line per run list keeps a point reviewable.
    text = re.sub(r"\[[^\[\]{}]*\]", lambda m: re.sub(r"\s+", " ", m.group(0)), text)
    with open(point, "x") as f:
        f.write(text + "\n")
    print(f"\npoint written to {point}")
PY
