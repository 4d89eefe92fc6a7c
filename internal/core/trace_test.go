package core

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"dyndesign/internal/obs"
)

// tracedProblem builds a random constrained problem with a tracer over
// the given sinks attached.
func tracedProblem(stages, structs, k int, sinks ...obs.Sink) *Problem {
	model, configs := randomModel(rand.New(rand.NewSource(7)), stages, structs)
	return &Problem{
		Stages:  stages,
		Configs: configs,
		K:       k,
		Model:   model,
		Metrics: &Metrics{},
		Tracer:  obs.NewTracer(sinks...),
	}
}

// TestTracedSolveCoversWallTime pins the acceptance criterion: with
// JSONL tracing enabled, a k-aware solve's root span covers (at least)
// 95% of the measured wall time, and the per-phase spans are present.
func TestTracedSolveCoversWallTime(t *testing.T) {
	var buf bytes.Buffer
	jw := obs.NewJSONLWriter(&buf)
	p := tracedProblem(60, 4, 3, jw)

	start := time.Now()
	sol, err := Solve(bg, p, StrategyKAware)
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckSolution(sol); err != nil {
		t.Fatal(err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string][]obs.SpanRecord{}
	for _, rec := range recs {
		byName[rec.Name] = append(byName[rec.Name], rec)
	}
	roots := byName[SpanSolve]
	if len(roots) != 1 {
		t.Fatalf("trace has %d %q spans, want 1", len(roots), SpanSolve)
	}
	if covered := roots[0].Dur; float64(covered) < 0.95*float64(wall) {
		t.Errorf("root span covers %v of %v wall time (%.1f%%), want >= 95%%",
			covered, wall, 100*float64(covered)/float64(wall))
	}
	if n := len(byName[SpanMatrixBuild]); n != 1 {
		t.Errorf("trace has %d matrix.build spans, want 1", n)
	}
	if n := len(byName[SpanMatrixExecStage]); n != 60 {
		t.Errorf("trace has %d matrix.exec_stage spans, want 60", n)
	}
	// One layer sweep per stage after the first.
	if n := len(byName[SpanKAwareSweep]); n != 59 {
		t.Errorf("trace has %d kaware.sweep spans, want 59", n)
	}
}

// TestTracedStrategiesEmitTheirSpans checks each solver leaves its
// characteristic spans in the aggregator. The solve span is Solve's:
// the library functions run below it.
func TestTracedStrategiesEmitTheirSpans(t *testing.T) {
	cases := []struct {
		solver string
		k      int
		want   []string
	}{
		{"kaware", 2, []string{SpanSolve, SpanMatrixBuild, SpanKAwareSweep}},
		{"greedyseq", 2, []string{SpanSolve, SpanGreedyReduce, SpanKAwareSweep}},
		{"merge", 2, []string{SpanSolve, SpanSeqgraphDP, SpanMergeStep}},
		// Ranking gets a loose bound: with small k its enumeration is the
		// paper's worst case and would exhaust the budget, which is a
		// different test's business (TestRankingBudget).
		{"ranking", 39, []string{SpanRankingSweep, SpanRankingExpand}},
	}
	solvers := map[string]namedSolver{}
	for _, s := range everySolver() {
		solvers[s.name] = s
	}
	for _, c := range cases {
		t.Run(c.solver, func(t *testing.T) {
			agg := obs.NewAggregator()
			p := tracedProblem(40, 3, c.k, agg)
			if _, err := solvers[c.solver].run(bg, p); err != nil {
				t.Fatal(err)
			}
			seen := map[string]bool{}
			for _, st := range agg.Snapshot() {
				seen[st.Name] = true
			}
			for _, name := range c.want {
				if !seen[name] {
					t.Errorf("solver %s left no %q span (saw %v)", c.solver, name, seen)
				}
			}
		})
	}
}

// TestSeqgraphDPSpanNamesWorkers checks the seqgraph.dp span says which
// schedule ran the stage loop: workers=2 when a lattice of splitMinBits
// bits splits between two processors, 1 on the one-worker schedule and
// on the dense kernel.
func TestSeqgraphDPSpanNamesWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, c := range []struct {
		name        string
		structs     int
		kernel      transKernel
		parallelism int
		want        int64
	}{
		{"split", splitMinBits, kernelHypercube, 2, 2},
		{"one worker", splitMinBits, kernelHypercube, 1, 1},
		{"narrow lattice", splitMinBits - 1, kernelHypercube, 2, 1},
		{"dense", 3, kernelDense, 2, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			sink := &spanAttrSink{name: SpanSeqgraphDP}
			m, configs := randomAdditiveModel(rand.New(rand.NewSource(9)), 6, c.structs)
			p := &Problem{Stages: 6, Configs: configs, K: Unconstrained, Model: m,
				kernel: c.kernel, Parallelism: c.parallelism, Tracer: obs.NewTracer(sink)}
			if _, err := SolveUnconstrained(bg, p); err != nil {
				t.Fatal(err)
			}
			if got, _ := sink.attrs["workers"].(int64); got != c.want {
				t.Errorf("seqgraph.dp workers = %v, want %d (attrs %v)", sink.attrs["workers"], c.want, sink.attrs)
			}
		})
	}
}

// TestTracedResilientRungSpans checks the supervisor emits one rung
// span per attempt.
func TestTracedResilientRungSpans(t *testing.T) {
	agg := obs.NewAggregator()
	p := tracedProblem(30, 3, 2, agg)
	res, err := SolveResilient(bg, p, ResilientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Fatalf("healthy solve degraded: %+v", res.Reports)
	}
	for _, st := range agg.Snapshot() {
		if st.Name == SpanResilientRung {
			if st.Count != 1 {
				t.Errorf("rung span count = %d, want 1", st.Count)
			}
			return
		}
	}
	t.Error("no resilient.rung span emitted")
}

// TestTracedParallelBuildRace drives the real worker pool with a tracer
// attached — concurrent span emission from solver goroutines — and
// checks the aggregate exec-row count is exact. Run under -race this
// proves the facade is safe at its hottest concurrent call site.
func TestTracedParallelBuildRace(t *testing.T) {
	agg := obs.NewAggregator()
	var buf bytes.Buffer
	jw := obs.NewJSONLWriter(&buf)
	const stages = 200
	p := tracedProblem(stages, 4, 2, agg, jw)
	p.Parallelism = 8
	if err := p.BuildCostTables(bg); err != nil {
		t.Fatal(err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	var rows int64
	for _, st := range agg.Snapshot() {
		if st.Name == SpanMatrixExecStage {
			rows = st.Count
		}
	}
	if rows != stages {
		t.Errorf("aggregator saw %d exec-row spans, want %d", rows, stages)
	}
	recs, err := obs.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	jsonRows := 0
	for _, rec := range recs {
		if rec.Name == SpanMatrixExecStage {
			jsonRows++
		}
	}
	if jsonRows != stages {
		t.Errorf("JSONL saw %d exec-row spans, want %d", jsonRows, stages)
	}
}
