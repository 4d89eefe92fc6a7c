package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"dyndesign/internal/advisor"
	"dyndesign/internal/catalog"
	"dyndesign/internal/engine"
	"dyndesign/internal/experiments"
	"dyndesign/internal/workload"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	rows     int64
	seconds  float64
	trace    string // "0", "1", or a span file path
	repeat   int
	setups   int
	size     sizes
}

// sizes are the statement and row counts the workloads and probes are
// built from. The benchmark always runs defaultSizes; the package's
// smoke test runs smokeSizes, which keep every code path and every
// check at a few hundred statements.
type sizes struct {
	// solve_lattice trace geometry: reads between LOAD bursts, burst
	// length, and the window solved.
	latticeReadsPerLoad, latticeLoadRows, latticeWindow int
	// layerStatements of the workload's trace go through the traced
	// run's in-process ingest pipeline and through its child.
	layerStatements int
	// Probe sizes: each probe times a fixed number of calls into one
	// layer's public functions and the traced run reports the mean.
	probeDML      int // DML statements costed by the validation probe
	probePlans    int // statements compiled into plan tables
	probeHeapRows int // rows of the substrate probes' own heap
	probeMaintain int // rows added under index maintenance
	probeTreeKeys int // keys inserted into and sought in the probe B+-tree
	probeScans    int // full-table SELECTs without an index
	probeSeeks    int // SELECTs through an index
	probeInserts  int // INSERTs with one index installed
	probeFsyncs   int // 4 KB append+fsync pairs
	probeSpin     int // iterations of the arithmetic loop
}

// defaultSizes: an 18 000-statement window (360 stages of 50) with a
// 3 000-row LOAD burst after every 5 000 reads; 10 000 traced statements
// are 1 000 batches of 10, so the traced child's p99 leaves ten round
// trips beyond it.
var defaultSizes = sizes{
	latticeReadsPerLoad: 5000, latticeLoadRows: 3000, latticeWindow: 18000,
	layerStatements: 10000,
	probeDML:        400, probePlans: 2000, probeHeapRows: 100000, probeMaintain: 20000,
	probeTreeKeys: 200000, probeScans: 15, probeSeeks: 2000, probeInserts: 2000,
	probeFsyncs: 500, probeSpin: 20000000,
}

var smokeSizes = sizes{
	latticeReadsPerLoad: 250, latticeLoadRows: 100, latticeWindow: 600,
	layerStatements: 1500, // three trace blocks: enough for a drift alert
	probeDML:        40, probePlans: 100, probeHeapRows: 2000, probeMaintain: 500,
	probeTreeKeys: 2000, probeScans: 3, probeSeeks: 100, probeInserts: 100,
	probeFsyncs: 20, probeSpin: 100000,
}

func (c config) traced() bool { return c.trace != "" && c.trace != "0" }

// env is one workload's set-up: the table, the advisor over it, the
// workload's unbounded statement source and, for the stream workloads,
// the running advisord child.
type env struct {
	cfg  config
	root string // repository root
	db   *engine.Database
	adv  *advisor.Advisor
	// take returns the next n statements of the workload's trace.
	take func(n int) ([]stmt, error)

	// Stream workloads only.
	bin       string
	child     *child
	childArgs []string
	port      int

	loadSeconds float64 // table load + Analyze
}

// latticeStructures are the ten candidate indexes of solve_lattice; all
// 2¹⁰ subsets are allowed configurations.
func latticeStructures() []catalog.IndexDef {
	var defs []catalog.IndexDef
	for _, cols := range [][]string{
		{"a"}, {"b"}, {"c"}, {"d"}, {"a", "b"}, {"c", "d"}, {"b", "a"}, {"d", "c"}, {"a", "c"}, {"b", "d"},
	} {
		defs = append(defs, catalog.IndexDef{Table: workload.PaperTable, Columns: cols})
	}
	return defs
}

func latticeSpace() advisor.DesignSpace {
	return advisor.DesignSpace{Table: workload.PaperTable, Structures: latticeStructures()}
}

// replayBlock sizes a replay_engine round so that its two engine
// replays take about the measured window at the default table size.
func replayBlock(seconds float64) int {
	return max(2, int(2.5*seconds))
}

// setup builds the workload's environment. Everything in here is
// set-up time: table load, Analyze, trace generation, advisor.New and,
// for the stream workloads, the child's start until /healthz answers.
func setup(cfg config, root, bin string) (*env, error) {
	e := &env{cfg: cfg, root: root, bin: bin}
	t0 := time.Now()
	db, err := experiments.SetupPaperDatabase(experiments.Scale{Rows: cfg.rows, BlockSize: 1, Seed: 1})
	if err != nil {
		return nil, fmt.Errorf("building the %d-row table: %w", cfg.rows, err)
	}
	e.loadSeconds = time.Since(t0).Seconds()
	e.db = db

	space := experiments.PaperSpace()
	switch cfg.workload {
	case wlStreamDurable, wlStreamMemDML:
		src := newStreamSource(cfg.rows, cfg.seed, cfg.workload == wlStreamMemDML)
		e.take = src.next
	case wlSolveLattice:
		space = latticeSpace()
		trace, err := latticeTrace(cfg.rows, cfg.seed, cfg.size)
		if err != nil {
			return nil, err
		}
		e.take = sliceSource(func(int64) ([]stmt, error) { return trace, nil })
	case wlReplayEngine:
		block := replayBlock(cfg.seconds)
		e.take = sliceSource(func(round int64) ([]stmt, error) {
			return replayTrace(cfg.rows, cfg.seed+round, block)
		})
	default:
		return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames, ", "))
	}
	// Generate the first stretch of the trace now: it is set-up work.
	if _, err := e.take(0); err != nil {
		return nil, err
	}
	if e.adv, err = advisor.New(db, space); err != nil {
		return nil, err
	}
	if cfg.workload == wlStreamDurable || cfg.workload == wlStreamMemDML {
		if err := e.startStreamChild(); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// sliceSource turns a per-round trace generator into an unbounded
// statement source: round 0, then round 1, ….
func sliceSource(gen func(round int64) ([]stmt, error)) func(int) ([]stmt, error) {
	var buf []stmt
	round := int64(0)
	return func(n int) ([]stmt, error) {
		for len(buf) < n || round == 0 {
			more, err := gen(round)
			if err != nil {
				return nil, err
			}
			round++
			buf = append(buf, more...)
		}
		out := buf[:n:n]
		buf = buf[n:]
		return out, nil
	}
}

// scratch is this process's directory under the work dir for WAL data
// dirs and probe files. It is package state so that every exit path —
// a finished workload, a failed check, a signal — can remove it.
var scratch struct {
	sync.Mutex
	dir string
}

// removeScratch deletes the scratch directory, if any.
func removeScratch() {
	scratch.Lock()
	defer scratch.Unlock()
	if scratch.dir != "" {
		os.RemoveAll(scratch.dir)
		scratch.dir = ""
	}
}

// freshDir creates a new, empty directory under the scratch directory
// and refuses one that already exists.
func (e *env) freshDir(prefix string) (string, error) {
	scratch.Lock()
	defer scratch.Unlock()
	if scratch.dir == "" {
		dir := filepath.Join(e.root, workDirName, "run-"+strconv.Itoa(os.Getpid()))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return "", err
		}
		scratch.dir = dir
	}
	run := scratch.dir
	for i := 0; ; i++ {
		dir := filepath.Join(run, prefix+"-"+strconv.Itoa(i))
		err := os.Mkdir(dir, 0o755)
		if err == nil {
			return dir, nil
		}
		if !os.IsExist(err) {
			return "", err
		}
	}
}

// startStreamChild starts the workload's advisord child: stream_durable
// with a fresh data dir and one fsync per statement, stream_mem_dml
// with neither WAL nor calibration. Every other flag keeps its default.
func (e *env) startStreamChild() error {
	port, err := freePort()
	if err != nil {
		return err
	}
	e.port = port
	if e.cfg.workload == wlStreamDurable {
		dataDir, err := e.freshDir("data")
		if err != nil {
			return err
		}
		e.childArgs = []string{"-data-dir", dataDir, "-fsync-every", "1"}
	} else {
		e.childArgs = []string{"-calib-samples", "0"}
	}
	e.child, err = startChild(e.bin, port, e.cfg.rows, e.childArgs...)
	return err
}

// close stops the child, if any, and removes the scratch directory.
func (e *env) close() {
	if e.child != nil {
		e.child.stop()
		e.child = nil
	}
	removeScratch()
}

// vmHWMMB reads a process's peak resident set size in MB from
// /proc/<pid>/status ("self" for the harness); 0 when unreadable.
func vmHWMMB(pid string) float64 {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(fields[1], 64) // malformed reads as 0
			return kb / 1024
		}
	}
	return 0
}

// sysInfo describes the machine and build a result was measured on.
type sysInfo struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Commit     string `json:"commit"`
}

func readSysInfo(root string) sysInfo {
	info := sysInfo{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Commit:     "unknown",
	}
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		info.Commit = strings.TrimSpace(string(out))
	}
	return info
}
