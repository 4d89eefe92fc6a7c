package core

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

// slowModel wraps a tableModel with a fixed per-evaluation delay and
// closes started on the first evaluation, so tests can cancel a solve
// that is provably in flight.
type slowModel struct {
	*tableModel
	delay     time.Duration
	started   chan struct{}
	startOnce atomic.Bool
}

func newSlowModel(m *tableModel, delay time.Duration) *slowModel {
	return &slowModel{tableModel: m, delay: delay, started: make(chan struct{})}
}

func (m *slowModel) note() {
	if m.startOnce.CompareAndSwap(false, true) {
		close(m.started)
	}
	time.Sleep(m.delay)
}

func (m *slowModel) Exec(stage int, c Config) float64 {
	m.note()
	return m.tableModel.Exec(stage, c)
}

func (m *slowModel) Trans(from, to Config) float64 {
	m.note()
	return m.tableModel.Trans(from, to)
}

// TestEveryStrategyReturnsPromptlyOnCancel cancels each strategy
// mid-solve on a problem whose full solve is far slower than the
// acceptable cancellation latency, and asserts the strategy surfaces
// context.Canceled within a bounded wall-clock time instead of running
// to completion or hanging.
func TestEveryStrategyReturnsPromptlyOnCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	base, configs := randomModel(rng, 64, 6) // 64 stages × 64 configs
	for _, s := range everySolver() {
		s := s
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			m := newSlowModel(base, 200*time.Microsecond)
			p := &Problem{Stages: 64, Configs: configs, Initial: 0, K: 2,
				Model: m, Metrics: &Metrics{}}
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				<-m.started
				cancel()
			}()
			start := time.Now()
			sol, err := s.run(ctx, p)
			elapsed := time.Since(start)
			if err == nil {
				t.Fatalf("solve completed (%v) despite cancellation", sol.Cost)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("error %v does not wrap context.Canceled", err)
			}
			// The full cost tables alone are 64·64 + 64·64 evaluations at
			// 200µs each; cancellation must land orders of magnitude
			// sooner. 5s is a very generous CI bound.
			if elapsed > 5*time.Second {
				t.Fatalf("cancellation took %v", elapsed)
			}
			// Solve keeps the ledger; the library functions run below it.
			if _, err := ParseStrategy(s.name); err == nil && p.Metrics.Snapshot().Cancellations == 0 {
				t.Error("cancellation not recorded in metrics")
			}
		})
	}
}

// TestSolvePreCancelled asserts a solve under an already-cancelled
// context fails fast without touching the model.
func TestSolvePreCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(223))
	m, configs := randomModel(rng, 20, 4)
	p := &Problem{Stages: 20, Configs: configs, Initial: 0, K: 2, Model: m}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, s := range everySolver() {
		if _, err := s.run(ctx, p); !errors.Is(err, context.Canceled) {
			t.Errorf("solver %s under cancelled context: %v", s.name, err)
		}
	}
}

// TestSolveDeadlineExceeded asserts an expired deadline surfaces as
// context.DeadlineExceeded through the solve path.
func TestSolveDeadlineExceeded(t *testing.T) {
	rng := rand.New(rand.NewSource(227))
	base, configs := randomModel(rng, 64, 6)
	m := newSlowModel(base, 200*time.Microsecond)
	p := &Problem{Stages: 64, Configs: configs, Initial: 0, K: 2, Model: m}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := Solve(ctx, p, StrategyKAware); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not wrap context.DeadlineExceeded", err)
	}
}

// panicAtModel panics on the n-th EXEC evaluation (1-based), once.
type panicAtModel struct {
	*tableModel
	at    int64
	calls atomic.Int64
}

func (m *panicAtModel) Exec(stage int, c Config) float64 {
	if m.calls.Add(1) == m.at {
		panic("injected model panic")
	}
	return m.tableModel.Exec(stage, c)
}

// TestParallelWorkerPanicBecomesError is the worker-pool panic
// contract: a panic inside a pooled worker is recovered, carries the
// worker's stack, and is returned as a *PanicError instead of
// re-panicking on the caller's goroutine or crashing the process.
// Run under -race this also proves the recovery path is data-race
// free.
func TestParallelWorkerPanicBecomesError(t *testing.T) {
	rng := rand.New(rand.NewSource(229))
	base, configs := randomModel(rng, 40, 6)
	for _, parallelism := range []int{1, 8} {
		m := &panicAtModel{tableModel: base, at: 100}
		p := &Problem{Stages: 40, Configs: configs, Initial: 0, K: 2,
			Model: m, Parallelism: parallelism, Metrics: &Metrics{}}
		sol, err := Solve(context.Background(), p, StrategyKAware)
		if err == nil {
			t.Fatalf("parallelism %d: panicking model produced solution %v", parallelism, sol.Cost)
		}
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("parallelism %d: error %v is not a *PanicError", parallelism, err)
		}
		if pe.Value != "injected model panic" {
			t.Errorf("parallelism %d: recovered value %v", parallelism, pe.Value)
		}
		if len(pe.Stack) == 0 {
			t.Errorf("parallelism %d: no stack attached", parallelism)
		}
		if p.Metrics.Snapshot().RecoveredPanics == 0 {
			t.Errorf("parallelism %d: recovered panic not recorded", parallelism)
		}
	}
}

// TestParallelForPanicPrecedence asserts that when a worker panics
// while the context is also cancelled, the panic error wins: it is the
// more actionable diagnosis.
func TestParallelForPanicPrecedence(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	err := ParallelFor(ctx, 4, 64, func(i int) {
		if i == 3 {
			cancel()
			panic("boom")
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v is not a *PanicError", err)
	}
}
