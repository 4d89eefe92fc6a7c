package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dyndesign/internal/obs"
)

// faultyModel is a FallibleModel whose EXEC evaluations fail according
// to a caller-provided predicate: failing calls return +Inf and record
// the failure for TakeErr, mimicking the advisor's what-if model.
type faultyModel struct {
	*tableModel
	failAt func(call int64) bool
	calls  atomic.Int64

	mu  sync.Mutex
	err error
	// stage and config are the cell of the last injected failure.
	stage  int
	config Config
}

func (m *faultyModel) Exec(stage int, c Config) float64 {
	if m.failAt != nil && m.failAt(m.calls.Add(1)) {
		m.mu.Lock()
		if m.err == nil {
			m.err = errors.New("injected evaluation failure")
		}
		m.stage, m.config = stage, c
		m.mu.Unlock()
		return math.Inf(1)
	}
	return m.tableModel.Exec(stage, c)
}

func (m *faultyModel) TakeErr() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	err := m.err
	m.err = nil
	return err
}

// onceValue fires true exactly once, at the given call number.
func onceValue(at int64) func(int64) bool {
	var fired atomic.Bool
	return func(call int64) bool {
		return call == at && fired.CompareAndSwap(false, true)
	}
}

func resilientProblem(t *testing.T, seed int64) (*Problem, *tableModel, []Config) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m, configs := randomModel(rng, 12, 3)
	p := &Problem{Stages: 12, Configs: configs, Initial: 0, K: 2,
		Model: m, Metrics: &Metrics{}}
	return p, m, configs
}

func TestResilientFirstRungAnswers(t *testing.T) {
	p, _, _ := resilientProblem(t, 301)
	res, err := SolveResilient(context.Background(), p, ResilientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rung != StrategyKAware || res.Degraded {
		t.Fatalf("rung = %s degraded = %v", res.Rung, res.Degraded)
	}
	if len(res.Reports) != 1 || res.Reports[0].Class != "" {
		t.Fatalf("reports = %+v", res.Reports)
	}
	if err := p.CheckSolution(res.Solution); err != nil {
		t.Fatal(err)
	}
	want, err := SolveKAware(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(res.Solution.Cost, want.Cost) {
		t.Fatalf("resilient %f != kaware %f", res.Solution.Cost, want.Cost)
	}
	if p.Metrics.Snapshot().Degradations != 0 {
		t.Error("clean solve recorded degradations")
	}
}

func TestResilientDegradesOnPanic(t *testing.T) {
	p, base, _ := resilientProblem(t, 307)
	// Panic exactly once: the first rung eats it, the second runs clean.
	p.Model = &panicAtModel{tableModel: base, at: 5}
	res, err := SolveResilient(context.Background(), p, ResilientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rung != StrategyGreedySeq || !res.Degraded {
		t.Fatalf("rung = %s degraded = %v", res.Rung, res.Degraded)
	}
	if res.Reports[0].Class != FailPanic {
		t.Fatalf("first rung class = %s, want panic", res.Reports[0].Class)
	}
	var pe *PanicError
	if !errors.As(res.Reports[0].Err, &pe) {
		t.Fatalf("first rung error %v is not a *PanicError", res.Reports[0].Err)
	}
	if err := p.CheckSolution(res.Solution); err != nil {
		t.Fatal(err)
	}
	if p.Metrics.Snapshot().RecoveredPanics == 0 || p.Metrics.Snapshot().Degradations != 1 {
		t.Errorf("metrics: panics=%d degradations=%d",
			p.Metrics.Snapshot().RecoveredPanics, p.Metrics.Snapshot().Degradations)
	}
}

func TestResilientDegradesOnTransientFault(t *testing.T) {
	p, base, _ := resilientProblem(t, 311)
	p.Model = &faultyModel{tableModel: base, failAt: onceValue(5)}
	res, err := SolveResilient(context.Background(), p, ResilientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatal("transient fault did not degrade")
	}
	if res.Reports[0].Class != FailFault {
		t.Fatalf("first rung class = %s, want fault", res.Reports[0].Class)
	}
	if !errors.Is(res.Reports[0].Err, ErrModelFault) {
		t.Fatalf("first rung error %v does not wrap ErrModelFault", res.Reports[0].Err)
	}
	if err := p.CheckSolution(res.Solution); err != nil {
		t.Fatal(err)
	}
}

func TestResilientBudgetFallsToLastKnownGood(t *testing.T) {
	p, _, _ := resilientProblem(t, 313)
	// A known-good static design: stay on the initial configuration.
	lkgDesigns := make([]Config, p.Stages)
	lkg := p.NewSolution(lkgDesigns)
	// Budget far below one cost-table build: every solving rung trips.
	res, err := SolveResilient(context.Background(), p, ResilientOptions{
		MaxWhatIfCalls: 5,
		LastKnownGood:  lkg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rung != RungLastKnownGood || !res.Degraded {
		t.Fatalf("rung = %s degraded = %v", res.Rung, res.Degraded)
	}
	for _, r := range res.Reports[:len(res.Reports)-1] {
		if r.Class != FailBudget {
			t.Fatalf("rung %s class = %s, want budget", r.Strategy, r.Class)
		}
		if !errors.Is(r.Err, ErrWhatIfBudget) {
			t.Fatalf("rung %s error %v does not wrap ErrWhatIfBudget", r.Strategy, r.Err)
		}
	}
	if err := p.CheckSolution(res.Solution); err != nil {
		t.Fatal(err)
	}
	if p.Metrics.Snapshot().Degradations != 3 {
		t.Errorf("degradations = %d, want 3", p.Metrics.Snapshot().Degradations)
	}
}

func TestResilientBudgetWithoutFallbackFails(t *testing.T) {
	p, _, _ := resilientProblem(t, 317)
	res, err := SolveResilient(context.Background(), p, ResilientOptions{MaxWhatIfCalls: 5})
	if err == nil {
		t.Fatalf("budget-starved solve succeeded: %+v", res)
	}
	if !errors.Is(err, ErrWhatIfBudget) {
		t.Fatalf("error %v does not wrap ErrWhatIfBudget", err)
	}
	if res == nil || len(res.Reports) != 3 {
		t.Fatalf("failure result lacks rung reports: %+v", res)
	}
	if res.Solution != nil {
		t.Error("failure result carries a solution")
	}
}

func TestResilientRungTimeout(t *testing.T) {
	rng := rand.New(rand.NewSource(331))
	base, configs := randomModel(rng, 64, 6)
	slow := newSlowModel(base, 500*time.Microsecond)
	p := &Problem{Stages: 64, Configs: configs, Initial: 0, K: 2,
		Model: slow, Metrics: &Metrics{}}
	lkgDesigns := make([]Config, p.Stages)
	lkg := p.NewSolution(lkgDesigns) // priced before the clock matters
	res, err := SolveResilient(context.Background(), p, ResilientOptions{
		Ladder:        []Strategy{StrategyKAware},
		RungTimeout:   time.Millisecond,
		LastKnownGood: lkg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rung != RungLastKnownGood {
		t.Fatalf("rung = %s", res.Rung)
	}
	if res.Reports[0].Class != FailTimeout {
		t.Fatalf("first rung class = %s, want timeout", res.Reports[0].Class)
	}
	if err := p.CheckSolution(res.Solution); err != nil {
		t.Fatal(err)
	}
}

func TestResilientParentCancelAborts(t *testing.T) {
	p, _, _ := resilientProblem(t, 337)
	lkg := p.NewSolution(make([]Config, p.Stages))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := SolveResilient(ctx, p, ResilientOptions{LastKnownGood: lkg})
	if err == nil {
		t.Fatalf("cancelled resilient solve succeeded: rung %s", res.Rung)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
}

func TestResilientRejectsInvalidLastKnownGood(t *testing.T) {
	p, _, _ := resilientProblem(t, 347)
	bad := &Solution{Designs: make([]Config, 3)} // wrong length
	res, err := SolveResilient(context.Background(), p, ResilientOptions{
		MaxWhatIfCalls: 5,
		LastKnownGood:  bad,
	})
	if err == nil {
		t.Fatalf("invalid last-known-good accepted: %+v", res)
	}
	last := res.Reports[len(res.Reports)-1]
	if last.Strategy != RungLastKnownGood || last.Class == "" {
		t.Fatalf("last report = %+v", last)
	}
}

// TestDefaultLadder derives the ladders from the strategy table — every
// strategy heads its own ladder, followed by the table's rungs in
// Strategies() order minus itself — and pins today's literal ladders
// once, so a table edit that changes them is a visible diff here.
func TestDefaultLadder(t *testing.T) {
	pos := make(map[Strategy]int)
	for i, s := range Strategies() {
		pos[s] = i
	}
	rungs := DefaultLadder("")[1:]
	for i, r := range rungs {
		if _, ok := pos[r]; !ok {
			t.Fatalf("rung %q is not a strategy (%v)", r, Strategies())
		}
		if i > 0 && pos[rungs[i-1]] >= pos[r] {
			t.Fatalf("rungs %v are not in table order %v", rungs, Strategies())
		}
	}
	for _, primary := range Strategies() {
		want := []Strategy{primary}
		for _, r := range rungs {
			if r != primary {
				want = append(want, r)
			}
		}
		if got := DefaultLadder(primary); !reflect.DeepEqual(got, want) {
			t.Errorf("DefaultLadder(%s) = %v, want %v", primary, got, want)
		}
	}
	for _, c := range []struct {
		primary Strategy
		want    []Strategy
	}{
		{"", []Strategy{StrategyKAware, StrategyGreedySeq, StrategyMerge}},
		{StrategyMerge, []Strategy{StrategyMerge, StrategyGreedySeq}},
		{StrategyPartitioned, []Strategy{StrategyPartitioned, StrategyGreedySeq, StrategyMerge}},
	} {
		if got := DefaultLadder(c.primary); !reflect.DeepEqual(got, c.want) {
			t.Errorf("DefaultLadder(%q) = %v, want %v", c.primary, got, c.want)
		}
	}
}

func TestClassifyFailure(t *testing.T) {
	cases := []struct {
		err  error
		want FailureClass
	}{
		{nil, ""},
		{recoverPanic("x"), FailPanic},
		{ErrWhatIfBudget, FailBudget},
		{ErrModelFault, FailFault},
		{context.DeadlineExceeded, FailTimeout},
		{context.Canceled, FailCancelled},
		{errors.New("other"), FailError},
	}
	for _, c := range cases {
		if got := classifyFailure(c.err); got != c.want {
			t.Errorf("classifyFailure(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

// kernelSink records the kernel attribute of every layer sweep.
type kernelSink struct {
	mu      sync.Mutex
	kernels map[string]int
}

func (s *kernelSink) Emit(rec obs.SpanRecord) {
	if rec.Name != SpanKAwareSweep {
		return
	}
	for _, a := range rec.Attrs {
		if a.Key == "kernel" {
			s.mu.Lock()
			s.kernels[a.StringValue()]++
			s.mu.Unlock()
		}
	}
}

// TestBudgetKeepsModelCapabilities pins that a what-if budget bounds how
// much a rung may ask and nothing else: the budget wrapper must not hide
// the model's AdditiveTransModel / InteractionModel capabilities, so a
// budgeted full-lattice solve picks the same kernel as the unbudgeted
// one and returns bit-identical cost and designs, and a budgeted
// partitioned solve still factors.
func TestBudgetKeepsModelCapabilities(t *testing.T) {
	const stages, groups, bitsPer = 12, 2, 4 // 2^8 lattice: hypercube under kernelAuto
	m, configs := randomGroupedModel(rand.New(rand.NewSource(77)), stages, groups, bitsPer)
	solve := func(budget int64, ladder ...Strategy) (*Solution, map[string]int) {
		t.Helper()
		sink := &kernelSink{kernels: map[string]int{}}
		p := &Problem{
			Stages: stages, Configs: configs, K: 3, Model: m, Parallelism: 1,
			Metrics: &Metrics{}, Tracer: obs.NewTracer(sink),
		}
		res, err := SolveResilient(context.Background(), p, ResilientOptions{Ladder: ladder, MaxWhatIfCalls: budget})
		if err != nil {
			t.Fatalf("budget %d, ladder %v: %v", budget, ladder, err)
		}
		if res.Degraded {
			t.Fatalf("budget %d, ladder %v degraded to %s: %+v", budget, ladder, res.Rung, res.Reports)
		}
		return res.Solution, sink.kernels
	}
	ample := int64(stages * len(configs) * 4)

	free, freeKernels := solve(0, StrategyKAware)
	capped, cappedKernels := solve(ample, StrategyKAware)
	if freeKernels["hypercube"] != stages-1 || len(freeKernels) != 1 {
		t.Fatalf("unbudgeted sweeps by kernel = %v, want %d hypercube", freeKernels, stages-1)
	}
	if !reflect.DeepEqual(cappedKernels, freeKernels) {
		t.Fatalf("budgeted sweeps by kernel = %v, unbudgeted = %v", cappedKernels, freeKernels)
	}
	if math.Float64bits(capped.Cost) != math.Float64bits(free.Cost) || !reflect.DeepEqual(capped.Designs, free.Designs) {
		t.Fatalf("budgeted solve differs: cost %v vs %v\n%v\n%v", capped.Cost, free.Cost, capped.Designs, free.Designs)
	}

	// Two sweeps per stage transition (one per 4-bit component) is the
	// signature of a factored solve; 2^8-wide sweeps would mean the
	// partitioner lost the interaction cliques behind the wrapper.
	freePart, freePartKernels := solve(0, StrategyPartitioned)
	part, partKernels := solve(ample, StrategyPartitioned)
	if n := partKernels["dense"] + partKernels["hypercube"]; n != groups*(stages-1) {
		t.Fatalf("budgeted partitioned solve ran %d sweeps (%v), want %d (one per component per stage)", n, partKernels, groups*(stages-1))
	}
	if !reflect.DeepEqual(partKernels, freePartKernels) || part.Cost != freePart.Cost || !reflect.DeepEqual(part.Designs, freePart.Designs) {
		t.Fatalf("budgeted partitioned solve differs: %v cost %v vs %v cost %v", partKernels, part.Cost, freePartKernels, freePart.Cost)
	}
}
