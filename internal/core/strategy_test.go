package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"dyndesign/internal/obs"
)

// solveSpanSink records the strategy attribute of every solve span.
type solveSpanSink struct {
	mu         sync.Mutex
	strategies []string
}

func (s *solveSpanSink) Emit(rec obs.SpanRecord) {
	if rec.Name != SpanSolve {
		return
	}
	for _, a := range rec.Attrs {
		if a.Key == "strategy" {
			s.mu.Lock()
			s.strategies = append(s.strategies, a.StringValue())
			s.mu.Unlock()
		}
	}
}

// TestStrategyTable pins that the strategy table is the whole
// production surface: every listed name parses, solves through Solve
// and reports itself on the solve span, and no other name — the two
// solvers that are library functions included — parses or solves.
func TestStrategyTable(t *testing.T) {
	want := []Strategy{StrategyKAware, StrategyGreedySeq, StrategyMerge, StrategyPartitioned}
	if got := Strategies(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Strategies() = %v, want %v", got, want)
	}
	m, configs := randomModel(rand.New(rand.NewSource(131)), 9, 4)
	sink := &solveSpanSink{}
	p := &Problem{Stages: 9, Configs: configs, K: 2, Model: m, Tracer: obs.NewTracer(sink)}
	optimal, err := SolveKAware(bg, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range Strategies() {
		if got, err := ParseStrategy(string(s)); err != nil || got != s {
			t.Errorf("ParseStrategy(%q) = %q, %v", s, got, err)
		}
		sink.strategies = nil
		sol, err := Solve(bg, p, s)
		if err != nil {
			t.Fatalf("Solve(%s): %v", s, err)
		}
		if err := p.CheckSolution(sol); err != nil {
			t.Errorf("Solve(%s): %v", s, err)
		}
		if sol.Cost < optimal.Cost-1e-6 {
			t.Errorf("Solve(%s) cost %v beats the optimum %v", s, sol.Cost, optimal.Cost)
		}
		if len(sink.strategies) != 1 || sink.strategies[0] != string(s) {
			t.Errorf("Solve(%s) solve spans report strategies %v, want itself once", s, sink.strategies)
		}
	}
	wantErr := fmt.Sprintf("(want one of %v)", want)
	for _, name := range []string{"ranking", "rankmerge", "hybrid", "kawre"} {
		_, err := ParseStrategy(name)
		if err == nil {
			t.Errorf("ParseStrategy(%q) accepted a name outside the table", name)
			continue
		}
		if msg := err.Error(); msg != fmt.Sprintf("core: unknown strategy %q %s", name, wantErr) {
			t.Errorf("ParseStrategy(%q) error = %q, want it to list exactly %v", name, msg, want)
		}
		sink.strategies = nil
		if sol, err := Solve(bg, p, Strategy(name)); err == nil {
			t.Errorf("Solve(%q) returned cost %v for a name outside the table", name, sol.Cost)
		}
		if len(sink.strategies) != 0 {
			t.Errorf("Solve(%q) started a solve span", name)
		}
	}
}
