package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// slideEdit derives a slid problem from a solved one: head stages
// dropped, tail stages appended, and optionally the initial design, the
// final design, one EXEC row or one transition price changed.
type slideEdit struct {
	head, tail                             int
	flipC0, flipFinal, flipExec, flipPrice bool
}

// costRow is one EXEC row of n cells in one of the generator's cost shapes.
func costRow(rng *rand.Rand, n, shape int) []float64 {
	row := make([]float64, n)
	for j := range row {
		switch shape {
		case costsFloat:
			row[j] = rng.Float64() * 100
		case costsSmallInt:
			row[j] = float64(rng.Intn(4))
		default:
			row[j] = float64(rng.Intn(4)) * 1e9
		}
	}
	return row
}

// apply returns the slid problem over a model of its own, sharing p's
// solve cache and metrics: the base's EXEC rows from head on (the same
// slices, as a row store hands them out, except a changed one), then
// the new ones.
func (e slideEdit) apply(rng *rand.Rand, p *Problem, shape int) *Problem {
	base := p.Model.(*additiveModel)
	m := &additiveModel{
		exec: slices.Clone(base.exec[e.head:]),
		add:  slices.Clone(base.add),
		drop: slices.Clone(base.drop),
	}
	lattice := len(base.exec[0])
	for range e.tail {
		m.exec = append(m.exec, costRow(rng, lattice, shape))
	}
	if e.flipExec {
		i := rng.Intn(len(m.exec))
		m.exec[i] = slices.Clone(m.exec[i])
		m.exec[i][rng.Intn(lattice)] += 1
	}
	if e.flipPrice {
		m.add[rng.Intn(len(m.add))] += 1
	}
	q := *p
	q.Stages, q.Model = len(m.exec), m
	if e.flipC0 {
		q.Initial = Config(rng.Intn(lattice))
	}
	if e.flipFinal {
		f := p.Configs[rng.Intn(len(p.Configs))]
		if p.Final != nil {
			q.Final = nil
		} else {
			q.Final = &f
		}
	}
	return &q
}

// primed is a solve cache on which a seed pass has already run, so that
// its next one keeps its rows.
func primed() *SolveCache { return &SolveCache{seeded: true} }

// fresh is p on a solve cache of its own, with its own metrics.
func fresh(p *Problem) *Problem {
	q := *p
	q.Cache, q.Metrics = NewSolveCache(), &Metrics{}
	return &q
}

// TestSlideSplitMatchesOneWorker runs a kept pass and a slide over it on
// one worker and split between two, at every lattice width from 1 to 9
// bits and in the three cost shapes: the same stages reused, the same
// retained cost rows and parent rows, bit for bit. Some cases must
// reuse, so that the split's stop at a bit-match runs.
func TestSlideSplitMatchesOneWorker(t *testing.T) {
	reusing := 0
	for structs := 1; structs <= 9; structs++ {
		for shape := 0; shape < costShapes; shape++ {
			seed := int64(10*structs + shape)
			c := exactCase{stages: 24, structs: structs, shape: shape}
			base := c.problem(seed, 1)
			slid := slideEdit{head: 1 + int(seed%3), tail: 1 + int(seed%2)}.apply(rand.New(rand.NewSource(seed)), base, shape)
			var states [2]*seedState
			var reused [2]int
			for w, split := range []bool{false, true} {
				old := keptPass(t, base, nil, split)
				states[w], reused[w] = keptSlide(t, slid, old, split)
			}
			what := fmt.Sprintf("%d bits, shape %d", structs, shape)
			if reused[0] != reused[1] {
				t.Fatalf("%s: one worker reused %d stages, split %d", what, reused[0], reused[1])
			}
			if reused[0] > 0 {
				reusing++
			}
			sameState(t, what, states[0], states[1])
		}
	}
	if reusing == 0 {
		t.Fatal("no case reused a stage: the split's stop at a bit-match never ran")
	}
}

// keptPass runs a kept seed pass over p's tables, reading old.
func keptPass(t *testing.T, p *Problem, old *seedState, split bool) *seedState {
	t.Helper()
	st, _ := keptSlide(t, p, old, split)
	return st
}

// keptSlide is keptPass with the count of stages taken from old.
func keptSlide(t *testing.T, p *Problem, old *seedState, split bool) (*seedState, int) {
	t.Helper()
	m, kern, err := p.solveInputs(bg)
	if err != nil {
		t.Fatal(err)
	}
	st, reused, err := kern.(*hyperKernel).slide(bg, m, old, split)
	if err != nil {
		t.Fatal(err)
	}
	return st, reused
}

// sameState fails unless two kept passes retain the same rows.
func sameState(t *testing.T, what string, a, b *seedState) {
	t.Helper()
	for i := range a.cost {
		if (a.cost[i] == nil) != (b.cost[i] == nil) || !bitsEqual(a.cost[i], b.cost[i]) {
			t.Fatalf("%s: stage %d cost rows differ", what, i)
		}
		if !slices.Equal(a.parents[i], b.parents[i]) {
			t.Fatalf("%s: stage %d parent rows differ", what, i)
		}
	}
}

// TestCancelledSlideKeepsRetainedState cancels a slide's seed pass
// mid-loop: the solve returns the cause, counts a full pass, and leaves
// the retained state as it was, so the next slide still reuses it and
// answers what a fresh cache answers.
func TestCancelledSlideKeepsRetainedState(t *testing.T) {
	c := exactCase{stages: 40, structs: 6, shape: costsSmallInt, k: 2}
	base := c.problem(7, 1)
	base.Cache, base.Metrics = primed(), &Metrics{}
	if _, err := SolveUnconstrained(bg, base); err != nil {
		t.Fatal(err)
	}
	kept := base.Cache.retained()
	slid := slideEdit{head: 1, tail: 1}.apply(rand.New(rand.NewSource(7)), base, c.shape)
	slid.Metrics = &Metrics{}

	m, kern, err := slid.solveInputs(bg)
	if err != nil {
		t.Fatal(err)
	}
	cause := errors.New("cancelled at stage 1")
	ctx, cancel := context.WithCancelCause(bg)
	defer cancel(nil)
	kern.(*hyperKernel).observe = func(stage, _ int, _ lattice) {
		if stage == 1 {
			cancel(cause)
		}
	}
	if _, err := slid.unconstrainedOn(ctx, m, kern); !errors.Is(err, cause) {
		t.Fatalf("cancelled slide returned %v, want the cause", err)
	}
	if base.Cache.retained() != kept {
		t.Fatal("a cancelled pass replaced the retained state")
	}
	if got := slid.Metrics.Snapshot(); got.SeedFullPasses != 1 || got.SeedStagesReused != 0 {
		t.Fatalf("cancelled slide: %d full passes, %d stages reused; want one full pass", got.SeedFullPasses, got.SeedStagesReused)
	}

	got, err := SolveUnconstrained(bg, slid)
	want, errW := SolveUnconstrained(bg, fresh(slid))
	sameSolution(t, "slide after the cancelled one", want, got, errW, err)
	if slid.Metrics.Snapshot().SeedStagesReused == 0 {
		t.Fatal("the slide after a cancelled one reused nothing")
	}
}

// TestSparseLatticeKeepsNoState pins retainable: the empty design and
// the eight one-structure designs fill 9 of a 256-point lattice, and
// their seed pass keeps no rows.
func TestSparseLatticeKeepsNoState(t *testing.T) {
	c := exactCase{stages: 10, structs: 8, shape: costsSmallInt}
	p := c.problem(3, 1)
	p.Configs = []Config{0}
	for s := range 8 {
		p.Configs = append(p.Configs, Config(1)<<s)
	}
	p.Cache = primed()
	if _, err := SolveUnconstrained(bg, p); err != nil {
		t.Fatal(err)
	}
	if p.Cache.retained() != nil {
		t.Fatal("a seed pass over a sparse lattice retained its rows")
	}
}

// TestFirstSeedPassKeepsNothing pins reseeding: the first seed pass on a
// cache keeps no rows, the second keeps them without counting a full
// pass (nothing was retained), and the third reuses them.
func TestFirstSeedPassKeepsNothing(t *testing.T) {
	p := exactCase{stages: 20, structs: 6, shape: costsSmallInt}.problem(3, 1)
	p.Cache, p.Metrics = NewSolveCache(), &Metrics{}
	for pass, keeps := range []bool{false, true, true} {
		if _, err := SolveUnconstrained(bg, p); err != nil {
			t.Fatal(err)
		}
		if got := p.Cache.retained() != nil; got != keeps {
			t.Fatalf("after pass %d: rows retained %v, want %v", pass+1, got, keeps)
		}
	}
	if got := p.Metrics.Snapshot(); got.SeedStagesReused != int64(p.Stages-1) || got.SeedFullPasses != 0 {
		t.Fatalf("three passes over one window: %d stages reused, %d full passes; want %d and 0",
			got.SeedStagesReused, got.SeedFullPasses, p.Stages-1)
	}
}

// TestKeptPassMatchesForward holds a kept pass, which gives each stage
// its own rows, to the forward pass that alternates two: the same
// last-stage costs and parent rows, bit for bit.
func TestKeptPassMatchesForward(t *testing.T) {
	for shape := 0; shape < costShapes; shape++ {
		p := exactCase{stages: 20, structs: 7, shape: shape, infShare: 0.1}.problem(int64(shape), 1)
		st := keptPass(t, p, nil, false)
		m, kern, err := p.solveInputs(bg)
		if err != nil {
			t.Fatal(err)
		}
		parents := make([][]int32, p.Stages)
		for i := 1; i < p.Stages; i++ {
			parents[i] = make([]int32, len(m.configs))
		}
		k := kern.(*hyperKernel)
		cost, err := k.runForward(bg, m, parents, false)
		if err != nil {
			t.Fatal(err)
		}
		if last := k.gather(st.cost[p.Stages-1]); !bitsEqual(last, cost) {
			t.Fatalf("shape %d: kept pass's last costs differ from the forward pass's", shape)
		}
		for i := 1; i < p.Stages; i++ {
			if !slices.Equal(st.parents[i], parents[i]) {
				t.Fatalf("shape %d: stage %d parents differ", shape, i)
			}
		}
	}
}

// TestConcurrentSlidesShareOneCache runs slides of one solved window
// from several goroutines on the cache that retains it: each answers
// what a fresh cache answers, whichever pass the cache retains when it
// starts (run it under -race).
func TestConcurrentSlidesShareOneCache(t *testing.T) {
	c := exactCase{stages: 30, structs: 8, shape: costsSmallInt, k: 2}
	base := c.problem(11, 2)
	base.Cache = primed()
	if _, err := SolveUnconstrained(bg, base); err != nil {
		t.Fatal(err)
	}
	const slides = 6
	want := make([]*Solution, slides)
	probs := make([]*Problem, slides)
	for i := range probs {
		probs[i] = slideEdit{head: 1 + i%3, tail: 1 + i%2}.apply(rand.New(rand.NewSource(int64(i))), base, c.shape)
		var err error
		if want[i], err = SolveUnconstrained(bg, fresh(probs[i])); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]*Solution, slides)
	errs := make([]error, slides)
	var wg sync.WaitGroup
	for i := range probs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = SolveUnconstrained(bg, probs[i])
		}()
	}
	wg.Wait()
	for i := range probs {
		sameSolution(t, fmt.Sprintf("concurrent slide %d", i), want[i], got[i], nil, errs[i])
	}
}
