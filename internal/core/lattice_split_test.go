package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"dyndesign/internal/obs"
)

// sweepLog records every forward stage's final lattice as observe sees
// it; each (stage, half) slot is written by the one worker owning the
// half.
type sweepLog struct {
	val [][]float64
	org [][]int32
}

func newSweepLog(k *hyperKernel, stages int) *sweepLog {
	l := &sweepLog{val: make([][]float64, stages), org: make([][]int32, stages)}
	for i := 1; i < stages; i++ {
		l.val[i] = make([]float64, k.size)
		l.org[i] = make([]int32, k.size)
	}
	k.observe = func(stage, lo int, half lattice) {
		copy(l.val[stage][lo:], half.val)
		copy(l.org[stage][lo:], half.org)
	}
	return l
}

// forwardRun is one forward pass's observable output.
type forwardRun struct {
	cost    []float64
	parents [][]int32
	sweeps  *sweepLog
}

// runForwardLogged runs the hypercube forward pass on p's tables on one
// worker or split, whatever the lattice width and the processor count.
func runForwardLogged(t *testing.T, p *Problem, split bool) forwardRun {
	t.Helper()
	m, kern, err := p.solveInputs(bg)
	if err != nil {
		t.Fatal(err)
	}
	k, ok := kern.(*hyperKernel)
	if !ok {
		t.Fatalf("kernel %s, want hypercube", kern.name())
	}
	run := forwardRun{parents: make([][]int32, p.Stages), sweeps: newSweepLog(k, p.Stages)}
	for i := 1; i < p.Stages; i++ {
		run.parents[i] = make([]int32, len(m.configs))
	}
	if run.cost, err = k.runForward(bg, m, run.parents, split); err != nil {
		t.Fatal(err)
	}
	return run
}

// sweepPassPerBit is the reference sweep: one strip pass per bit in
// ascending order over the whole lattice, then one add pass per bit.
func sweepPassPerBit(l lattice, stripPrice, addPrice []float64) {
	size := len(l.val)
	for pass, prices := range [2][]float64{stripPrice, addPrice} {
		for b, price := range prices {
			bit := 1 << uint(b)
			from, to := bit, 0
			if pass == 1 {
				from, to = 0, bit
			}
			for blk := 0; blk < size; blk += 2 * bit {
				for lo := blk; lo < blk+bit; lo++ {
					x, y := lo+from, lo+to
					if v := l.val[x] + price; v < l.val[y] {
						l.val[y] = v
						l.org[y] = l.org[x]
					}
				}
			}
		}
	}
}

// TestSweepMatchesPassPerBit holds the sweep — two bits to a pass and
// the top bit in phases of its own — to the pass-per-bit reference on
// every lattice width from 0 to 12 bits, forward and reverse, with
// small-integer values and prices that tie often and +Inf cells: values
// and origins bit for bit.
func TestSweepMatchesPassPerBit(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for structs := 0; structs <= 12; structs++ {
		for trial := 0; trial < 4; trial++ {
			c := exactCase{stages: 1, structs: max(structs, 1), shape: costsSmallInt, subset: trial%2 == 1}
			p := c.problem(int64(100*structs+trial), 1)
			if structs == 0 {
				p.Configs = []Config{0}
			}
			_, kern, err := p.solveInputs(bg)
			if err != nil {
				t.Fatal(err)
			}
			k := kern.(*hyperKernel)
			src := make([]float64, len(k.configs))
			for j := range src {
				if src[j] = float64(rng.Intn(6)); rng.Intn(8) == 0 {
					src[j] = math.Inf(1)
				}
			}
			for _, reverse := range []bool{false, true} {
				strip, add := k.drpL, k.addL
				if reverse {
					strip, add = add, strip
				}
				got, want := newLattice(k.size), newLattice(k.size)
				k.scatter(src, got)
				k.scatter(src, want)
				k.sweep(got, strip, add)
				sweepPassPerBit(want, strip, add)
				for x := range got.val {
					if math.Float64bits(got.val[x]) != math.Float64bits(want.val[x]) || got.org[x] != want.org[x] {
						t.Fatalf("%d bits, trial %d, reverse %v, cell %d: (%v, %d), pass per bit (%v, %d)",
							structs, trial, reverse, x, got.val[x], got.org[x], want.val[x], want.org[x])
					}
				}
			}
		}
	}
}

// forwardInputs are what a forward pass runs on: the case's tables, its
// hypercube kernel and parent rows.
func forwardInputs(tb testing.TB, c exactCase, seed int64) (*matrices, *hyperKernel, [][]int32) {
	tb.Helper()
	p := c.problem(seed, 2)
	m, kern, err := p.solveInputs(bg)
	if err != nil {
		tb.Fatal(err)
	}
	parents := make([][]int32, p.Stages)
	for i := 1; i < p.Stages; i++ {
		parents[i] = make([]int32, len(m.configs))
	}
	return m, kern.(*hyperKernel), parents
}

// splitFixture is the robustness tests' problem: a 9-bit lattice over
// 40 stages.
func splitFixture(t *testing.T) (*matrices, *hyperKernel, [][]int32) {
	return forwardInputs(t, exactCase{stages: 40, structs: 9}, 5)
}

// catch runs f and returns what it panicked with, if anything, and its
// error.
func catch(f func() error) (panicked any, err error) {
	defer func() { panicked = recover() }()
	return nil, f()
}

// awaitGoroutines fails unless the goroutine count returns to at most
// base: the split's helper must have exited once the pass returned.
func awaitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the forward pass, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLatticeSplitCancelWithinOneStage cancels the split mid-loop: the
// pass returns the cause, no stage after the next one finishes on either
// side, and the helper exits.
func TestLatticeSplitCancelWithinOneStage(t *testing.T) {
	m, k, parents := splitFixture(t)
	cause := errors.New("cancelled at stage 10")
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	var last [2]atomic.Int64 // the last stage each side finished
	k.observe = func(stage, lo int, _ lattice) {
		if stage == 10 && lo == 0 {
			cancel(cause)
		}
		last[min(lo, 1)].Store(int64(stage))
	}
	base := runtime.NumGoroutine()
	if _, err := k.runForward(ctx, m, parents, true); !errors.Is(err, cause) {
		t.Fatalf("forward pass returned %v, want the cancellation cause", err)
	}
	for side := range last {
		if got := last[side].Load(); got > 11 {
			t.Fatalf("side %d finished stage %d after cancellation at stage 10", side, got)
		}
	}
	awaitGoroutines(t, base)
}

// TestLatticeSplitOnOneProc runs Parallelism 4 and a forced split with a
// single processor: both complete — a worker waiting on the other
// yields rather than spinning out its time slice for ever — and match
// the one-worker schedule. A livelock shows as the test's timeout.
func TestLatticeSplitOnOneProc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	c := exactCase{stages: 30, structs: 9, k: 2, parallelism: 2}
	want, err := SolveUnconstrained(bg, c.problem(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := SolveUnconstrained(bg, c.problem(3, 4))
	sameSolution(t, "Parallelism 4 on one processor", want, got, nil, err)
	runExactCase(t, 3, c, &exactReach{})
}

// TestLatticeSplitStopsBothSides stops one side early by a panic: on the
// helper it comes back as a *PanicError, on the caller it propagates;
// either way the other side is not left waiting and the helper exits.
func TestLatticeSplitStopsBothSides(t *testing.T) {
	for _, side := range []struct {
		name string
		lo   func(k *hyperKernel) int
	}{
		{"helper", func(k *hyperKernel) int { return k.half }},
		{"caller", func(*hyperKernel) int { return 0 }},
	} {
		t.Run(side.name, func(t *testing.T) {
			m, k, parents := splitFixture(t)
			lo := side.lo(k)
			k.observe = func(stage, at int, _ lattice) {
				if stage == 7 && at == lo {
					panic("stop at stage 7")
				}
			}
			base := runtime.NumGoroutine()
			recovered, err := catch(func() error {
				_, err := k.runForward(bg, m, parents, true)
				return err
			})
			var pe *PanicError
			if lo == 0 {
				if recovered == nil {
					t.Fatalf("caller panic did not propagate (err %v)", err)
				}
			} else if !errors.As(err, &pe) || pe.Value != "stop at stage 7" {
				t.Fatalf("helper panic returned %v, want a *PanicError", err)
			}
			awaitGoroutines(t, base)
		})
	}
}

// sweepSpanSink acts on the layered DP's per-stage kaware.sweep spans,
// which worker 0 of its crew ends after its share of each stage.
type sweepSpanSink struct {
	seen   atomic.Int64
	atSeen func(n int64)
}

func (s *sweepSpanSink) Emit(rec obs.SpanRecord) {
	if rec.Name == SpanKAwareSweep {
		s.atSeen(s.seen.Add(1))
	}
}

// TestLayeredCrewStops stops the layered DP's crew mid-loop from worker
// 0: a cancellation returns its cause within one stage, a panic
// propagates, and either way the helper exits.
func TestLayeredCrewStops(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	cause := errors.New("cancelled at stage 10")
	for _, c := range []struct {
		name  string
		atTen func(cancel context.CancelCauseFunc)
	}{
		{"cancel", func(cancel context.CancelCauseFunc) { cancel(cause) }},
		{"panic", func(context.CancelCauseFunc) { panic("stop at stage 10") }},
	} {
		t.Run(c.name, func(t *testing.T) {
			ctx, cancel := context.WithCancelCause(context.Background())
			defer cancel(nil)
			sink := &sweepSpanSink{}
			sink.atSeen = func(n int64) {
				if n == 10 {
					c.atTen(cancel)
				}
			}
			p := exactCase{stages: 40, structs: 6, k: 3}.problem(8, 2)
			p.Tracer = obs.NewTracer(sink)
			base := runtime.NumGoroutine()
			recovered, err := catch(func() error {
				_, err := SolveKAware(ctx, p)
				return err
			})
			if c.name == "panic" {
				if recovered == nil {
					t.Fatalf("worker 0's panic did not propagate (err %v)", err)
				}
			} else if !errors.Is(err, cause) {
				t.Fatalf("SolveKAware returned %v, want the cancellation cause", err)
			}
			if n := sink.seen.Load(); n > 11 {
				t.Fatalf("%d stages swept after a stop at stage 10", n)
			}
			awaitGoroutines(t, base)
		})
	}
}

// TestLatticeSplitFinishesLastStage runs short splits over narrow
// lattices many times: worker 0 finishing its last stage must not cut
// worker 1's short, whose upper-half costs the answer reads.
func TestLatticeSplitFinishesLastStage(t *testing.T) {
	for structs := 1; structs <= 2; structs++ {
		c := exactCase{stages: 11, structs: structs, shape: costsSmallInt}
		for seed := int64(1); seed <= 20; seed++ {
			want := runForwardLogged(t, c.problem(seed, 1), false).cost
			for rep := 0; rep < 200; rep++ {
				got := runForwardLogged(t, c.problem(seed, 1), true).cost
				for j := range want {
					if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
						t.Fatalf("%d bits, seed %d, run %d: candidate %d costs %v split, %v on one worker",
							structs, seed, rep, j, got[j], want[j])
					}
				}
			}
		}
	}
}
