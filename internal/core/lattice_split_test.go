package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"dyndesign/internal/obs"
)

// splitCase is one random problem of the split ≡ one-worker differential:
// an additive model over 1–12 structure bits on the hypercube kernel.
type splitCase struct {
	stages, structs, k, shape int
	infShare                  float64 // share of EXEC cells set to +Inf
	withFinal, subset         bool
}

// problem builds the case's problem: costs of the given shape (float,
// small-integer ties, or integers ×10⁹ that swallow changeEpsilon), some
// +Inf EXEC cells, a full or subset candidate list, and random initial
// and final designs.
func (c splitCase) problem(seed int64, parallelism int) *Problem {
	rng := rand.New(rand.NewSource(seed))
	m, configs := randomAdditiveModel(rng, c.stages, c.structs)
	if c.shape != costsFloat {
		scale := 1.0
		if c.shape == costsScaledInt {
			scale = 1e9
		}
		for _, row := range m.exec {
			for j := range row {
				row[j] = float64(rng.Intn(4)) * scale
			}
		}
		for s := range m.add {
			m.add[s] = float64(rng.Intn(3)) * scale
			m.drop[s] = float64(rng.Intn(2)) * scale
		}
	}
	for _, row := range m.exec {
		for j := range row {
			if rng.Float64() < c.infShare {
				row[j] = math.Inf(1)
			}
		}
	}
	if c.subset {
		configs = subsetConfigs(rng, configs)
	}
	p := &Problem{
		Stages: c.stages, Configs: configs, Initial: Config(rng.Intn(1 << uint(c.structs))),
		K: c.k, Model: m, kernel: kernelHypercube, Parallelism: parallelism,
	}
	if c.withFinal {
		f := configs[rng.Intn(len(configs))]
		p.Final = &f
	}
	return p
}

// sameSolution fails unless two solver outcomes agree bit for bit:
// both errors or neither, equal Cost bits and identical designs.
func sameSolution(t *testing.T, what string, a, b *Solution, errA, errB error) {
	t.Helper()
	if (errA == nil) != (errB == nil) {
		t.Fatalf("%s: errors disagree: %v vs %v", what, errA, errB)
	}
	if errA != nil {
		return
	}
	if math.Float64bits(a.Cost) != math.Float64bits(b.Cost) {
		t.Fatalf("%s: cost %v != %v", what, a.Cost, b.Cost)
	}
	for i := range a.Designs {
		if a.Designs[i] != b.Designs[i] {
			t.Fatalf("%s: designs diverge at stage %d", what, i)
		}
	}
}

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

// runSplitCase holds the split forward pass to the one-worker schedule on
// one random problem — every stage's lattice values and origins, the
// parent rows and the final costs, bit for bit — and every solver that
// runs the hypercube kernel to the same Cost bits and designs at
// Parallelism 1, 2 and 4.
func runSplitCase(t *testing.T, seed int64, c splitCase) {
	t.Helper()
	one := runForwardLogged(t, c.problem(seed, 1), false)
	two := runForwardLogged(t, c.problem(seed, 1), true)
	for j := range one.cost {
		if math.Float64bits(one.cost[j]) != math.Float64bits(two.cost[j]) {
			t.Fatalf("final cost of candidate %d: one worker %v, split %v", j, one.cost[j], two.cost[j])
		}
	}
	for i := 1; i < c.stages; i++ {
		for x := range one.sweeps.val[i] {
			a, b := one.sweeps.val[i][x], two.sweeps.val[i][x]
			if math.Float64bits(a) != math.Float64bits(b) || one.sweeps.org[i][x] != two.sweeps.org[i][x] {
				t.Fatalf("stage %d cell %d: one worker (%v, %d), split (%v, %d)",
					i, x, a, one.sweeps.org[i][x], b, two.sweeps.org[i][x])
			}
		}
		for j := range one.parents[i] {
			if one.parents[i][j] != two.parents[i][j] {
				t.Fatalf("stage %d parent of candidate %d: one worker %d, split %d", i, j, one.parents[i][j], two.parents[i][j])
			}
		}
	}

	base := c.problem(seed, 1)
	wantU, errU := SolveUnconstrained(bg, base)
	wantE, _, errE := solveExact(bg, base)
	wantK, errK := SolveKAware(bg, base)
	wantS, errS := SweepK(bg, base, c.k+1)
	for _, par := range []int{2, 4} {
		p := c.problem(seed, par)
		what := func(solver string) string { return fmt.Sprintf("%s at Parallelism %d", solver, par) }
		got, err := SolveUnconstrained(bg, p)
		sameSolution(t, what("SolveUnconstrained"), wantU, got, errU, err)
		got, _, err = solveExact(bg, p)
		sameSolution(t, what("solveExact"), wantE, got, errE, err)
		got, err = SolveKAware(bg, p)
		sameSolution(t, what("SolveKAware"), wantK, got, errK, err)
		curve, err := SweepK(bg, p, c.k+1)
		if (err == nil) != (errS == nil) {
			t.Fatalf("%s: errors disagree: %v vs %v", what("SweepK"), errS, err)
		}
		for i := range curve {
			if !reflect.DeepEqual(curve[i], wantS[i]) {
				t.Fatalf("%s point %d: %+v, want %+v", what("SweepK"), i, curve[i], wantS[i])
			}
		}
	}
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
			c := splitCase{stages: 1, structs: max(structs, 1), shape: costsSmallInt, subset: trial%2 == 1}
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

// TestLatticeSplitMatchesOneWorker is the differential grid: every
// lattice width from 1 to 12 bits, the three cost shapes, full and
// subset candidate lists, with and without +Inf cells and a final
// design.
func TestLatticeSplitMatchesOneWorker(t *testing.T) {
	seed := int64(0)
	for structs := 1; structs <= 12; structs++ {
		stages := 2 + 9*(12-structs)/11 // 11 stages at 1 bit, 2 at 12
		for shape := 0; shape < costShapes; shape++ {
			for _, infShare := range []float64{0, 0.2} {
				seed++
				runSplitCase(t, seed, splitCase{
					stages: stages, structs: structs, k: int(seed % 4), shape: shape,
					infShare: infShare, withFinal: seed%2 == 0, subset: seed%3 == 0,
				})
			}
		}
	}
}

// FuzzLatticeSplit fuzzes the same property (make fuzz-smoke).
func FuzzLatticeSplit(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(9), uint8(2), uint8(costsSmallInt), uint8(0), false, false)
	f.Add(int64(2), uint8(3), uint8(11), uint8(3), uint8(costsScaledInt), uint8(2), true, true)
	f.Add(int64(3), uint8(9), uint8(1), uint8(0), uint8(costsFloat), uint8(1), true, false)
	f.Add(int64(4), uint8(7), uint8(6), uint8(1), uint8(costsFloat), uint8(3), false, true)
	f.Fuzz(func(t *testing.T, seed int64, stagesRaw, structsRaw, kRaw, shapeRaw, infRaw uint8, withFinal, subset bool) {
		structs := 1 + int(structsRaw%12)
		runSplitCase(t, seed, splitCase{
			stages: 1 + int(stagesRaw)%max(2, 40>>(structs/2)), structs: structs,
			k: int(kRaw % 4), shape: int(shapeRaw % costShapes), infShare: float64(infRaw%4) / 8,
			withFinal: withFinal, subset: subset,
		})
	})
}

// forwardInputs are what a forward pass runs on: the case's tables, its
// hypercube kernel and parent rows.
func forwardInputs(tb testing.TB, c splitCase, seed int64) (*matrices, *hyperKernel, [][]int32) {
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
	return forwardInputs(t, splitCase{stages: 40, structs: 9}, 5)
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
	c := splitCase{stages: 30, structs: 9, k: 2}
	want, err := SolveUnconstrained(bg, c.problem(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := SolveUnconstrained(bg, c.problem(3, 4))
	sameSolution(t, "Parallelism 4 on one processor", want, got, nil, err)
	runSplitCase(t, 3, c)
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
			p := splitCase{stages: 40, structs: 6, k: 3}.problem(8, 2)
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
		c := splitCase{stages: 11, structs: structs, shape: costsSmallInt}
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
