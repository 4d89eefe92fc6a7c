package core

import (
	"math/rand"
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
