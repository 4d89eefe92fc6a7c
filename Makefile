GO ?= go

# COVER_FLOOR is the minimum statement coverage of internal/core (the
# solver layer) that cover-check accepts; it sits two points below
# the current ~92% so routine churn passes but a big untested addition
# fails.
COVER_FLOOR ?= 90.0

.PHONY: all build vet test race bench bench-smoke bench-e2e bench-pair frontier cover-check chaos lint tier1 examples explain-smoke fuzz-smoke advisord-smoke advisord-crash metrics-doc

all: tier1

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The -race suite exercises the concurrent costing layer: the what-if
# row store (matrix workers meeting on one segment row) and the parallel
# matrix build.
# internal/experiments replays full workloads against the live engine:
# 578 s under -race at its full test scale (2 CPUs), near go test's
# default 10m package deadline, so the race run takes that one package
# with -short — every test of it then runs at a fifth of the rows and
# half the block size, none skips, 77 s — and the timeout stays raised
# for slower machines.
race:
	$(GO) test -race -timeout 20m $$($(GO) list ./... | grep -v '/internal/experiments$$')
	$(GO) test -race -short -timeout 20m ./internal/experiments/

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# bench-smoke runs every Go benchmark for exactly one iteration (about
# half a minute): it gates nothing on time, only that no benchmark rots
# uncompiled or crashes unnoticed between the rare full `make bench` runs.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# bench-e2e runs the repo benchmark (BENCHMARK.json, bench/e2e) briefly
# for its correctness gate, not its timings: all four workloads, every
# forced solve checked against an in-process advisor.Recommend and
# every lattice solve against core.CheckSolution; any failed check is a
# non-zero exit. The JSON report lands in .bench_build/e2e-report.json
# (CI uploads it).
bench-e2e:
	$(GO) run ./bench/e2e -seconds 3

# bench-pair measures a performance claim: PAIRS alternating runs of
# the repo benchmark on the parent commit REF and on the change (the
# working tree, or HEAD when it is clean), each side built in a
# throw-away git archive copy; per gated metric it prints medians, quartiles,
# the ratio and the pairs won, and with POINT=bench/history/<nnnn-name>.json
# appends that point to the committed series (bench/history/README.md).
# Ten pairs of all four workloads take about an hour.
#   make bench-pair REF=<parent> WORKLOAD=<name|all> PAIRS=10 [POINT=...]
REF ?= HEAD~1
WORKLOAD ?= all
PAIRS ?= 10
bench-pair:
	scripts/benchpair.sh $(REF) $(WORKLOAD) $(PAIRS) $(POINT)

# frontier prints the two blocks of EXPERIMENTS.md that time the solver
# surface: Figure 4 (optimizer runtime against k) and the strategy table
# that decides which solvers are production strategies. Every cell runs
# alone, one after another; run it on an otherwise idle machine. It
# records nothing and gates nothing on time — the numbers are
# cmd/paperexp's to print and EXPERIMENTS.md's to quote (a few minutes).
frontier:
	$(GO) run ./cmd/paperexp -exp fig4 -rows 100000
	$(GO) run ./cmd/paperexp -exp ablations -rows 100000

# cover-check enforces the coverage floor on the solver layer.
cover-check:
	$(GO) test -coverprofile=cover.out ./internal/core/
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {gsub(/%/,"",$$3); print $$3}'); \
	rm -f cover.out; \
	echo "internal/core coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }'

# The chaos suite stress-tests the resilient solve supervisor under
# deterministic fault injection (errors, panics, latency; one-shot and
# persistent) — 126 seeded solves across all strategies, every one
# required to return a feasible solution or a typed error. Run under
# -race so the recovery paths are also proven data-race free.
chaos:
	$(GO) test -race -run TestResilientSolveUnderChaos -v ./internal/chaos/

# fuzz-smoke runs the fuzzers briefly (one go test run per
# fuzzer — the tool accepts a single -fuzz pattern at a time): random
# problems solved with both the dense and hypercube transition kernels
# must agree on feasibility and cost (kernel_test.go), the
# partitioned solver must stay within its reported optimality gap of
# the monolithic exact solve — bit-identical when the gap is zero
# (partition_test.go), and the exact production path, which runs the
# change-bounded layers only when k binds, must return the always-layered
# relaxation's cost bit for bit, tie-heavy integer costs included
# (exact_test.go), and the seed pass split between two workers must
# give the one-worker schedule's lattices, parent rows and costs bit for
# bit, every solver the same Cost bits and designs at Parallelism 1, 2
# and 4 (lattice_split_test.go), and a problem slid from a solved one —
# head stages dropped, tail stages appended, the initial or final
# design, an EXEC row or a price changed — must get from the solve cache
# that retains the solved one's seed pass the answer a fresh cache gives,
# bit for bit (seed_test.go); under random edit scripts of a window of
# parsed and literal statements, two segments must resolve one EXEC row
# store row exactly when their texts are equal, and a literal's text
# hash must equal the parsed statement's (internal/advisor/hash_test.go);
# batched plan-table costing must be bitwise
# identical to the planner's price on every configuration, a cost
# row filled by the row kernel — statement-major, or by configuration
# classes where a segment repeats a table — bitwise identical to both
# over arbitrary candidate lists (plan_test.go), and two statements with
# equal compile keys must compile to tables equal at every configuration,
# while a combined range has no key (intern_test.go); the readers of
# on-disk bytes — WAL/snapshot frames, the statement, reset or batch
# record inside a WAL frame, and the snapshot inside one — must answer
# arbitrary input with an error or a value that re-encodes to bytes they
# accept, without panicking or allocating what a length field merely
# promises (internal/durable/fuzz_test.go); and the two decoders of
# foreign bytes must never panic: the SQL parser, whose accepted
# statements must also print back to something that parses
# (internal/sql/fuzz_test.go), and POST /ingest, which must answer 200,
# 400 or 413 and move the ingested count by exactly what it acknowledged
# (cmd/advisord/ingest_test.go); and the engine's scans, which test
# predicates on encoded bytes, must never panic on an arbitrary heap
# payload or index key, must accept exactly the payloads DecodeRow
# accepts with its error, and must reach decode-then-evaluate's verdict
# (internal/engine/filter_test.go); and the radix sorter behind online
# index builds and ANALYZE must give slices.SortStableFunc's permutation
# on arbitrary byte keys, and the radix sort of packed INT words must
# order arbitrary records as slices.SortStableFunc by key does
# (internal/keyenc/sort_test.go); and a packed
# INT column of a page's or leaf's column view must keep the narrowest
# width, give back every value, set every value's bucket in its bucket
# bitmap and keep exactly the positions a range or IN conjunct accepts on
# the plain values, literals on bucket edges included
# (internal/engine/colview_test.go).
# CI runs this as a smoke test; longer local campaigns just raise
# -fuzztime.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzKernelEquivalence -fuzztime=20s ./internal/core/
	$(GO) test -run='^$$' -fuzz=FuzzPartitionEquivalence -fuzztime=20s ./internal/core/
	$(GO) test -run='^$$' -fuzz=FuzzExactFitsK -fuzztime=20s ./internal/core/
	$(GO) test -run='^$$' -fuzz=FuzzLatticeSplit -fuzztime=20s ./internal/core/
	$(GO) test -run='^$$' -fuzz=FuzzIncrementalSeed -fuzztime=20s ./internal/core/
	$(GO) test -run='^$$' -fuzz=FuzzSegmentHashReuse -fuzztime=20s ./internal/advisor/
	$(GO) test -run='^$$' -fuzz=FuzzBatchCostEquivalence -fuzztime=20s ./internal/cost/
	$(GO) test -run='^$$' -fuzz=FuzzRowKernelEquivalence -fuzztime=20s ./internal/cost/
	$(GO) test -run='^$$' -fuzz=FuzzPlanKey -fuzztime=20s ./internal/cost/
	$(GO) test -run='^$$' -fuzz=FuzzFrameDecode -fuzztime=20s ./internal/durable/
	$(GO) test -run='^$$' -fuzz=FuzzRecordDecode -fuzztime=20s ./internal/durable/
	$(GO) test -run='^$$' -fuzz=FuzzSnapshotDecode -fuzztime=20s ./internal/durable/
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=20s ./internal/sql/
	$(GO) test -run='^$$' -fuzz=FuzzIngestBody -fuzztime=20s ./cmd/advisord/
	$(GO) test -run='^$$' -fuzz=FuzzEncodedPredicate -fuzztime=20s ./internal/engine/
	$(GO) test -run='^$$' -fuzz=FuzzIntColumn -fuzztime=20s ./internal/engine/
	$(GO) test -run='^$$' -fuzz=FuzzSortKeys -fuzztime=20s ./internal/keyenc/
	$(GO) test -run='^$$' -fuzz=FuzzSortWords -fuzztime=20s ./internal/keyenc/

# examples runs the five programs under examples/ (a few seconds each)
# and diffs each one's output against its committed
# examples/<name>/testdata/output.txt, so that none compiles but never
# runs and none changes its answer unnoticed. Wall-clock fields ("4.2
# ms") are masked to "N ms" first; with the mask the outputs are the
# same run to run and at GOMAXPROCS=1.
EXAMPLES := quickstart retailrush spacebound tracereplay autotune
examples:
	@for e in $(EXAMPLES); do \
		echo "examples/$$e"; \
		$(GO) run ./examples/$$e | sed -E 's/[0-9]+(\.[0-9]+)? ms/N ms/g' \
			| diff -u examples/$$e/testdata/output.txt - || exit 1; \
	done

# explain-smoke drives the decision-provenance layer end to end on a
# tiny phase-structured trace: a 20-statement A/C plan, a k=2 solve
# with -explain, and the provenance JSON (attribution + k-sweep +
# overfitting audit) written to explain.json. The report on stdout
# (timings masked) and explain.json are diffed against the goldens in
# cmd/dyndesign/testdata. CI uploads the JSON as an artifact.
explain-smoke:
	$(GO) run ./cmd/workloadgen -plan "A:10,C:10" -rows 5000 -seed 7 -o explain-trace.json
	$(GO) run ./cmd/dyndesign -paper-rows 5000 -trace explain-trace.json -k 2 \
		-audit-trials 3 -explain -explain-out explain.json \
		| sed -E 's/[0-9]+(\.[0-9]+)? ms/N ms/g' | diff -u cmd/dyndesign/testdata/stdout.txt -
	diff -u cmd/dyndesign/testdata/explain.json explain.json
	@echo "explain-smoke: stdout and explain.json match their goldens"

# advisord-smoke exercises the long-running advisor service end to end
# under the race detector: a real HTTP listener, a phase-shifting trace
# streamed through POST /ingest, at least one drift-triggered re-solve
# (asserted via /healthz counters — the trigger is the alerter, not a
# timer), and a parseable GET /recommendation. The run also asserts
# post-publish calibration (GET /calibration + advisord_calib_* families
# in a linted metrics exposition: HELP and TYPE on every family, _total
# <=> counter, ^advisord_[a-z0-9_]+$ names, no family declared twice)
# and the per-solve decision lineage (GET /solves ring + solves.jsonl
# audit log); set ADVISORD_CALIB_ARTIFACTS to a directory to keep the
# calibration report JSON (CI uploads it). See DESIGN.md §13 and §16.
advisord-smoke:
	$(GO) test -race -count=1 -run TestAdvisordSmoke -v ./cmd/advisord/

# metrics-doc regenerates the README's advisord metrics table from the
# declarations in cmd/advisord (metricsTable). Without -update the same
# test — an ordinary tier-1 test — fails when the two diverge.
metrics-doc:
	$(GO) test -count=1 -run TestMetricsTableInREADME ./cmd/advisord/ -update

# advisord-crash runs the crash-restart equivalence harness under the
# race detector: advisord children are SIGKILLed at seeded chaos points
# (mid-WAL-append — inside a batch frame, none of which may survive —
# pre-fsync, at segment rotation, and at each stage of the atomic
# snapshot write), restarted over the same data dir, and the recovered
# recommendation must be byte-identical to an uninterrupted run over the
# same trace. On a mismatch the harness writes the two
# recommendation bodies to $$ADVISORD_CRASH_ARTIFACTS (CI uploads
# them). See DESIGN.md §14.
advisord-crash:
	$(GO) test -race -count=1 -run 'TestAdvisordCrashRecovery|TestServiceRecoveryRoundTrip|TestAdvisordShutdownWaitsForSolver|TestAdvisordIngestShedsUnderWALStall' -v ./cmd/advisord/ ./internal/durable/

# lint runs vet, gofmt, and staticcheck when the binary is present
# (the check is skipped, not failed, on machines without it).
lint: vet
	@fmtout="$$(gofmt -l .)"; if [ -n "$$fmtout" ]; then echo "gofmt needed:"; echo "$$fmtout"; exit 1; fi
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; else echo "staticcheck not installed; skipping"; fi

# tier1 is what CI runs and what every change must keep green.
tier1: build vet race bench-smoke examples
