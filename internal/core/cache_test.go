package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestSolveCacheKeysOnModelIdentity pins what a cached table set is
// keyed on: the same model instance reuses it, and a distinct instance,
// even one with identical content, builds its own.
func TestSolveCacheKeysOnModelIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	m1, configs := randomModel(rng, 6, 3)
	metrics := &Metrics{}
	p := &Problem{
		Stages: 6, Configs: configs, Initial: 0, K: 1, Model: m1,
		Cache: NewSolveCache(), Metrics: metrics,
	}
	if _, err := SolveKAware(bg, p); err != nil {
		t.Fatal(err)
	}
	if _, err := SolveKAware(bg, p); err != nil {
		t.Fatal(err)
	}
	if got := metrics.Snapshot().MatrixBuilds; got != 1 {
		t.Fatalf("same-instance rebuilds: MatrixBuilds = %d, want 1", got)
	}
	m2 := &tableModel{exec: m1.exec, trans: m1.trans, size: m1.size}
	p.Model = m2
	if _, err := SolveKAware(bg, p); err != nil {
		t.Fatal(err)
	}
	if got := metrics.Snapshot().MatrixBuilds; got != 2 {
		t.Fatalf("cross-instance: MatrixBuilds = %d, want 2", got)
	}
}

// TestCachedFaultServesNoLaterSolve pins the fault rule of a cached
// problem: a transient fault during the first table build leaves a +Inf
// cell in the set that solve built, and nothing after it sees the fault.
// A replay through the faulted cell prices it as the uncached model path
// does, a second Solve and a resilient ladder on the same problem answer
// what a fault-free problem answers, bit for bit, and the second Solve
// builds its tables again rather than reusing the faulted set.
func TestCachedFaultServesNoLaterSolve(t *testing.T) {
	p, base, _ := resilientProblem(t, 331)
	clean := *p
	clean.Metrics = &Metrics{}
	want, err := Solve(bg, &clean, StrategyKAware)
	if err != nil {
		t.Fatal(err)
	}
	faulty := &faultyModel{tableModel: base, failAt: onceValue(7)}
	p.Model, p.Cache = faulty, NewSolveCache()
	if _, err := Solve(bg, p, StrategyKAware); err != nil {
		t.Fatal(err)
	}
	if faulty.TakeErr() == nil {
		t.Fatal("the fault did not fire during the first table build")
	}
	designs := make([]Config, p.Stages)
	designs[faulty.stage] = faulty.config
	exec, trans := p.SequenceCostSplit(designs)
	uncached := *p
	uncached.Cache = nil
	wantExec, wantTrans := uncached.SequenceCostSplit(designs)
	if math.Float64bits(exec) != math.Float64bits(wantExec) || math.Float64bits(trans) != math.Float64bits(wantTrans) {
		t.Fatalf("replay through the faulted cell (stage %d, %v): %v + %v, the model path gives %v + %v",
			faulty.stage, faulty.config, exec, trans, wantExec, wantTrans)
	}
	same := func(what string, got *Solution) {
		t.Helper()
		if !slices.Equal(got.Designs, want.Designs) || math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
			t.Fatalf("%s: cost %v designs %v, the fault-free solve gives %v %v", what, got.Cost, got.Designs, want.Cost, want.Designs)
		}
	}
	again, err := Solve(bg, p, StrategyKAware)
	if err != nil {
		t.Fatal(err)
	}
	same("second Solve", again)
	if got := p.Metrics.Snapshot().MatrixBuilds; got != 2 {
		t.Fatalf("MatrixBuilds = %d after the second Solve, want 2: the faulted set must be rebuilt", got)
	}
	res, err := SolveResilient(bg, p, ResilientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Fatalf("ladder degraded to %s: %+v", res.Rung, res.Reports)
	}
	same("resilient ladder", res.Solution)
}
