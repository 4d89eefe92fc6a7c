// Command e2e is the repository's end-to-end benchmark: statement
// ingested → recommendation published, over four named workloads, with
// a per-layer budget from a separate traced run. BENCHMARK.json at the
// repository root names the metrics and their regression bounds;
// README.md in this directory defines them.
//
//	go run ./bench/e2e                                  # every workload, tracing off
//	go run ./bench/e2e -workload solve_lattice -trace 1 # per-layer numbers
//	go run ./bench/e2e -workload stream_durable -trace spans.jsonl
//	go run ./bench/e2e -repeat 5                        # run-to-run spread
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(mainCode()) }

func mainCode() int {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "all", "workload to run: all, "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "trace seed; the program under test only ever sees the generated SQL")
	flag.Int64Var(&cfg.rows, "rows", 250000, "rows of the paper table (paper scale: 2500000)")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "measured time per workload")
	flag.StringVar(&cfg.trace, "trace", "0", "0: end-to-end metrics; 1: traced run with per-layer metrics; a path: traced run that also writes its spans there")
	flag.IntVar(&cfg.repeat, "repeat", 1, "run the chosen workloads this many times and print each end-to-end metric's spread")
	flag.Parse()
	cfg.size = defaultSizes
	cfg.setups = setupsPerRun
	if flag.NArg() > 0 || cfg.rows < 1000 || cfg.seconds <= 0 || cfg.repeat < 1 {
		fmt.Fprintln(os.Stderr, "e2e: bad arguments; see -h (rows >= 1000, seconds > 0, repeat >= 1)")
		return 2
	}

	// Every exit path stops the children and removes the data dirs: a
	// signal lands in the goroutine, a return or a panic in the defer.
	cleanup := func() {
		stopAllChildren()
		removeScratch()
	}
	defer cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup()
		os.Exit(130)
	}()

	ok, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2e: %v\n", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

// setupsPerRun is how often an untraced run sets its workload up;
// setup_s is the median.
const setupsPerRun = 3

// report is the JSON file a run leaves in the work directory.
type report struct {
	Sys     sysInfo   `json:"sys"`
	Results []*result `json:"results"`
}

// run executes the chosen workloads -repeat times, prints the table and
// the contract lines, writes the JSON report, and reports whether every
// correctness check passed.
func run(cfg config) (bool, error) {
	root, err := repoRoot()
	if err != nil {
		return false, err
	}
	names := workloadNames
	if cfg.workload != "all" {
		if !slices.Contains(workloadNames, cfg.workload) {
			return false, fmt.Errorf("unknown workload %q (have all, %s)", cfg.workload, strings.Join(workloadNames, ", "))
		}
		names = []string{cfg.workload}
	}
	if err := os.MkdirAll(filepath.Join(root, workDirName), 0o755); err != nil {
		return false, err
	}
	// Built once, before any clock starts.
	bin, err := buildAdvisord(root)
	if err != nil {
		return false, err
	}
	rep := report{Sys: readSysInfo(root)}
	fmt.Printf("# go %s, GOMAXPROCS %d, nproc %d, commit %s, rows %d, seed %d, seconds %g\n",
		rep.Sys.GoVersion, rep.Sys.GOMAXPROCS, rep.Sys.NumCPU, rep.Sys.Commit, cfg.rows, cfg.seed, cfg.seconds)

	allOK := true
	for set := 0; set < cfg.repeat; set++ {
		for _, name := range names {
			c := cfg
			c.workload = name
			res, err := runWorkload(c, root, bin)
			if err != nil {
				return false, fmt.Errorf("%s: %w", name, err)
			}
			rep.Results = append(rep.Results, res)
			printResult(res)
			allOK = allOK && res.Failed == 0
		}
	}
	if cfg.repeat > 1 {
		printSpreads(rep.Results)
	}
	out := filepath.Join(root, workDirName, "e2e-report.json")
	if err := writeJSONFile(out, rep); err != nil {
		return false, err
	}
	fmt.Printf("# report written to %s\n", out)
	// The contract lines come last: one per workload of the final set,
	// so a single-workload invocation ends with exactly its line.
	for _, res := range rep.Results[len(rep.Results)-len(names):] {
		line, err := json.Marshal(contractLine(res))
		if err != nil {
			return false, err
		}
		fmt.Println(string(line))
	}
	return allOK, nil
}

// runWorkload sets the workload up cfg.setups times (setup_s is the
// median), measures it once on the last set-up, and tears it down.
func runWorkload(cfg config, root, bin string) (res *result, err error) {
	start := time.Now()
	// peak_rss_mb is this workload's, not the process's so far: writing 5
	// to clear_refs resets VmHWM. Best effort; where the kernel refuses,
	// a run of all workloads reports a cumulative peak.
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	res = &result{Workload: cfg.workload, Seed: cfg.seed, Rows: cfg.rows, Seconds: cfg.seconds, Traced: cfg.traced()}
	var e *env
	defer func() {
		if e != nil {
			e.close()
		}
		res.WallS = time.Since(start).Seconds()
	}()
	setups := cfg.setups
	if cfg.traced() {
		setups = 1 // set-up time is an end-to-end metric; the traced run needs one environment
	}
	var setupS []float64
	for i := 0; i < setups; i++ {
		if e != nil {
			e.close()
			e = nil
			runtime.GC() // drop the previous table before loading the next
		}
		t0 := time.Now()
		res.op(1)
		if e, err = setup(cfg, root, bin); err != nil {
			return res, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	if cfg.traced() {
		err = runTraced(e, res)
	} else {
		res.set("setup_s", median(setupS), len(setupS))
		res.set("setup_samples", float64(len(setupS)), 0)
		switch cfg.workload {
		case wlStreamDurable, wlStreamMemDML:
			err = runStream(e, res)
		case wlSolveLattice:
			err = runLattice(e, res)
		case wlReplayEngine:
			err = runReplay(e, res)
		}
	}
	if err != nil {
		return res, err
	}
	res.set("failed_ops_share", float64(res.Failed)/float64(res.Attempted), 0)
	return res, nil
}

// contract is the last line of standard output the driver reads.
type contract struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine keeps exactly the gated metrics of an untraced run and
// exactly the per-layer metrics of a traced one.
func contractLine(res *result) contract {
	want := kindEndToEnd
	if res.Traced {
		want = kindLayer
	}
	c := contract{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]contractValue{}}
	for _, def := range metricDefs {
		if def.Kind != want {
			continue
		}
		v, ok := res.get(def.Name)
		if !ok {
			// A contract metric the workload did not produce is a
			// harness defect; surface it as a failed run.
			c.Correct = false
			c.Failed++
			continue
		}
		c.Metrics[def.Name] = contractValue{Value: v, Unit: def.Unit}
	}
	return c
}

// printResult prints one line per metric: workload metric value unit.
func printResult(res *result) {
	for _, v := range res.Values {
		n := ""
		if v.Samples > 0 {
			n = fmt.Sprintf("  (n=%d)", v.Samples)
		}
		fmt.Printf("%-15s %-32s %14.6g %s%s\n", res.Workload, v.Name, v.Value, v.Unit, n)
	}
	fmt.Printf("%-15s %-32s %14d of %d, wall %.1f s\n", res.Workload, "failed_ops", res.Failed, res.Attempted, res.WallS)
	for _, f := range res.Failures {
		fmt.Printf("%-15s FAILED %s\n", res.Workload, f)
	}
}

// printSpreads prints, per workload and gated metric, the median over
// the repeated sets with two spreads: (max − min) ÷ median, and the
// interquartile distance ÷ median the driver accepts the benchmark by.
func printSpreads(results []*result) {
	fmt.Println("# spread over repeated sets: workload metric median (max-min)/median iqr/median n")
	for _, wl := range workloadNames {
		for _, def := range metricDefs {
			if def.Kind != kindEndToEnd {
				continue
			}
			var xs []float64
			for _, res := range results {
				if v, ok := res.get(def.Name); ok && res.Workload == wl && !res.Traced {
					xs = append(xs, v)
				}
			}
			if len(xs) < 2 {
				continue
			}
			fmt.Printf("%-15s %-20s %14.6g %8.4f %8.4f %d\n", wl, def.Name, median(xs), spread(xs), iqrShare(xs), len(xs))
		}
	}
}

func writeJSONFile(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// runRounds calls round until the measured time is used up: a new round
// starts only if, at the mean round length so far, at least half of it
// fits. At least one round runs.
func runRounds(seconds float64, round func() error) error {
	start := time.Now()
	for n := 1; ; n++ {
		if err := round(); err != nil {
			return err
		}
		elapsed := time.Since(start).Seconds()
		if elapsed+elapsed/float64(n)/2 > seconds {
			return nil
		}
	}
}
