package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"dyndesign/internal/obs"
)

// bg is the context used by tests that don't exercise cancellation.
var bg = context.Background()

// tableModel is a synthetic cost model over dense tables, for testing
// the solvers against brute force.
type tableModel struct {
	exec  [][]float64 // [stage][rawConfig]
	trans [][]float64 // [rawFrom][rawTo], zero diagonal
	size  []float64   // [rawConfig]
}

func (m *tableModel) Exec(stage int, c Config) float64 { return m.exec[stage][c] }
func (m *tableModel) Trans(from, to Config) float64    { return m.trans[from][to] }
func (m *tableModel) Size(c Config) float64            { return m.size[c] }

// randomModel builds a random model over all 2^structs configurations.
func randomModel(rng *rand.Rand, stages, structs int) (*tableModel, []Config) {
	n := 1 << uint(structs)
	m := &tableModel{
		exec:  make([][]float64, stages),
		trans: make([][]float64, n),
		size:  make([]float64, n),
	}
	for i := range m.exec {
		row := make([]float64, n)
		for j := range row {
			row[j] = rng.Float64() * 100
		}
		m.exec[i] = row
	}
	for f := range m.trans {
		row := make([]float64, n)
		for t := range row {
			if t != f {
				row[t] = rng.Float64() * 50
			}
		}
		m.trans[f] = row
	}
	for c := range m.size {
		m.size[c] = float64(Config(c).Count())
	}
	configs := make([]Config, n)
	for i := range configs {
		configs[i] = Config(i)
	}
	return m, configs
}

// namedSolver is one way to solve a problem, for the tests that cover
// every solver the package has.
type namedSolver struct {
	name string
	run  func(context.Context, *Problem) (*Solution, error)
}

// everySolver lists the table's strategies, each through Solve, and
// then the two solvers that are library functions, by name. Ranking
// gets its default budget and fails with ErrRankingBudget when that
// runs out.
func everySolver() []namedSolver {
	var out []namedSolver
	for _, s := range Strategies() {
		s := s
		out = append(out, namedSolver{string(s), func(ctx context.Context, p *Problem) (*Solution, error) {
			return Solve(ctx, p, s)
		}})
	}
	return append(out,
		namedSolver{"ranking", func(ctx context.Context, p *Problem) (*Solution, error) {
			res, err := SolveRanking(ctx, p, RankingOptions{})
			if err != nil {
				return nil, err
			}
			return res.Solution, res.Err()
		}},
		namedSolver{"rankmerge", func(ctx context.Context, p *Problem) (*Solution, error) {
			return SolveRankAndMerge(ctx, p, RankingOptions{})
		}},
	)
}

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*(1+math.Abs(a)+math.Abs(b))
}

func TestConfigBitsetOps(t *testing.T) {
	c := ConfigOf(0, 3, 5)
	if !c.Has(0) || !c.Has(3) || !c.Has(5) || c.Has(1) {
		t.Error("Has wrong")
	}
	if c.Count() != 3 {
		t.Errorf("Count = %d", c.Count())
	}
	if got := c.Structures(); len(got) != 3 || got[0] != 0 || got[1] != 3 || got[2] != 5 {
		t.Errorf("Structures = %v", got)
	}
	if c.With(1).Count() != 4 || c.Without(3).Count() != 2 {
		t.Error("With/Without wrong")
	}
	if c.With(3) != c || c.Without(1) != c {
		t.Error("With/Without not idempotent on present/absent bits")
	}
	added, removed := ConfigOf(0, 1).Diff(ConfigOf(1, 2))
	if len(added) != 1 || added[0] != 2 || len(removed) != 1 || removed[0] != 0 {
		t.Errorf("Diff = %v, %v", added, removed)
	}
}

func TestConfigFormat(t *testing.T) {
	names := []string{"I(a)", "I(b)"}
	if got := ConfigOf().Format(names); got != "{}" {
		t.Errorf("empty format = %q", got)
	}
	if got := ConfigOf(0, 1).Format(names); got != "{I(a), I(b)}" {
		t.Errorf("format = %q", got)
	}
	if got := ConfigOf(5).Format(names); got != "{#5}" {
		t.Errorf("out-of-range format = %q", got)
	}
}

func TestCountChangesPolicies(t *testing.T) {
	init := ConfigOf()
	designs := []Config{ConfigOf(0), ConfigOf(0), ConfigOf(1), ConfigOf(1)}
	if got := CountChanges(init, designs, FreeEndpoints); got != 1 {
		t.Errorf("FreeEndpoints changes = %d, want 1", got)
	}
	if got := CountChanges(init, designs, CountAll); got != 2 {
		t.Errorf("CountAll changes = %d, want 2", got)
	}
	// Starting on the initial design: both policies agree.
	designs = []Config{init, ConfigOf(1)}
	if CountChanges(init, designs, FreeEndpoints) != 1 || CountChanges(init, designs, CountAll) != 1 {
		t.Error("policies disagree when starting on the initial design")
	}
	if CountChanges(init, nil, CountAll) != 0 {
		t.Error("empty sequence has changes")
	}
}

func TestEnumerateConfigs(t *testing.T) {
	all, err := EnumerateConfigs(3, nil, 0)
	if err != nil || len(all) != 8 {
		t.Fatalf("EnumerateConfigs(3) = %d configs, %v", len(all), err)
	}
	bounded, err := EnumerateConfigs(3, func(c Config) float64 { return float64(c.Count()) }, 1)
	if err != nil || len(bounded) != 4 { // {}, {0}, {1}, {2}
		t.Fatalf("bounded enumeration = %d configs, %v", len(bounded), err)
	}
	if _, err := EnumerateConfigs(21, nil, 0); err == nil {
		t.Error("2^21 enumeration allowed")
	}
	if _, err := EnumerateConfigs(-1, nil, 0); err == nil {
		t.Error("negative structure count allowed")
	}
}

func TestProblemValidation(t *testing.T) {
	m, configs := randomModel(rand.New(rand.NewSource(1)), 3, 2)
	good := &Problem{Stages: 3, Configs: configs, Model: m, K: 1}
	if err := good.Validate(); err != nil {
		t.Errorf("valid problem rejected: %v", err)
	}
	bad := []*Problem{
		{Stages: 0, Configs: configs, Model: m},
		{Stages: 3, Configs: nil, Model: m},
		{Stages: 3, Configs: configs, Model: nil},
		{Stages: 3, Configs: []Config{0, 0}, Model: m},
		{Stages: 3, Configs: configs, Model: m, K: -2},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad problem %d accepted", i)
		}
	}
	f := Config(99)
	p := &Problem{Stages: 3, Configs: configs, Model: m, Final: &f}
	if err := p.Validate(); err == nil {
		t.Error("final config outside candidates accepted")
	}
}

func TestRankingMatchesKAware(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 25; trial++ {
		stages := 2 + rng.Intn(5)
		structs := 1 + rng.Intn(2)
		m, configs := randomModel(rng, stages, structs)
		for _, prune := range []bool{false, true} {
			for k := 0; k <= 2; k++ {
				p := &Problem{
					Stages: stages, Configs: configs, Initial: 0,
					K: k, Model: m,
				}
				want, err := SolveKAware(bg, p)
				if err != nil {
					t.Fatal(err)
				}
				res, err := SolveRanking(bg, p, RankingOptions{Prune: prune})
				if err != nil {
					t.Fatalf("trial %d k=%d prune=%v: %v", trial, k, prune, err)
				}
				if res.Exhausted || res.Solution == nil {
					t.Fatalf("trial %d k=%d prune=%v: exhausted after %d expansions",
						trial, k, prune, res.Expansions)
				}
				if !almostEqual(res.Solution.Cost, want.Cost) {
					t.Fatalf("trial %d k=%d prune=%v: ranking %f != kaware %f",
						trial, k, prune, res.Solution.Cost, want.Cost)
				}
				if err := p.CheckSolution(res.Solution); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

func TestRankingPruneExpandsLess(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m, configs := randomModel(rng, 8, 2)
	p := &Problem{Stages: 8, Configs: configs, Initial: 0, K: 1, Model: m}
	plain, err := SolveRanking(bg, p, RankingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := SolveRanking(bg, p, RankingOptions{Prune: true})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Expansions > plain.Expansions {
		t.Errorf("pruned ranking expanded more (%d) than plain (%d)", pruned.Expansions, plain.Expansions)
	}
}

func TestRankingBudgetExhaustion(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m, configs := randomModel(rng, 10, 2)
	p := &Problem{Stages: 10, Configs: configs, Initial: 0, K: 0, Model: m}
	res, err := SolveRanking(bg, p, RankingOptions{MaxExpansions: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exhausted || res.Solution != nil {
		t.Errorf("tiny budget not exhausted: %+v", res)
	}
}

func TestMergeProducesFeasibleAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		stages := 3 + rng.Intn(5)
		structs := 1 + rng.Intn(2)
		m, configs := randomModel(rng, stages, structs)
		for k := 0; k <= 2; k++ {
			p := &Problem{Stages: stages, Configs: configs, Initial: 0, K: k, Model: m}
			optimal, err := SolveKAware(bg, p)
			if err != nil {
				t.Fatal(err)
			}
			sol, steps, err := SolveMergeFromUnconstrained(bg, p)
			if err != nil {
				t.Fatalf("trial %d k=%d: %v", trial, k, err)
			}
			if err := p.CheckSolution(sol); err != nil {
				t.Fatalf("trial %d k=%d: %v", trial, k, err)
			}
			if sol.Cost < optimal.Cost-1e-6 {
				t.Fatalf("trial %d k=%d: merge %f beats optimal %f", trial, k, sol.Cost, optimal.Cost)
			}
			_ = steps
		}
	}
}

func TestMergeNoOpWhenAlreadyFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	m, configs := randomModel(rng, 6, 2)
	p := &Problem{Stages: 6, Configs: configs, Initial: 0, K: Unconstrained, Model: m}
	seed, err := SolveUnconstrained(bg, p)
	if err != nil {
		t.Fatal(err)
	}
	p2 := *p
	p2.K = seed.Changes // exactly feasible
	sol, steps, err := SolveMerge(bg, &p2, seed)
	if err != nil {
		t.Fatal(err)
	}
	if steps != 0 {
		t.Errorf("merge took %d steps on a feasible input", steps)
	}
	if !almostEqual(sol.Cost, seed.Cost) {
		t.Errorf("merge changed a feasible solution: %f -> %f", seed.Cost, sol.Cost)
	}
}

func TestMergeCountAllKZeroForcesInitial(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	m, configs := randomModel(rng, 5, 2)
	p := &Problem{Stages: 5, Configs: configs, Initial: 0, K: 0, Policy: CountAll, Model: m}
	sol, _, err := SolveMergeFromUnconstrained(bg, p)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range sol.Designs {
		if c != p.Initial {
			t.Fatalf("stage %d uses %v under CountAll k=0", i, c)
		}
	}
	if err := p.CheckSolution(sol); err != nil {
		t.Fatal(err)
	}
}

func TestGreedySeqFeasibleAndNeverBeatsOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 30; trial++ {
		stages := 2 + rng.Intn(5)
		structs := 1 + rng.Intn(3)
		m, configs := randomModel(rng, stages, structs)
		for k := 0; k <= 2; k++ {
			p := &Problem{Stages: stages, Configs: configs, Initial: 0, K: k, Model: m}
			optimal, err := SolveKAware(bg, p)
			if err != nil {
				t.Fatal(err)
			}
			sol, reduced, err := SolveGreedySeq(bg, p)
			if err != nil {
				t.Fatalf("trial %d k=%d: %v", trial, k, err)
			}
			if len(reduced) == 0 || len(reduced) > len(configs) {
				t.Fatalf("reduced candidate set has %d configs", len(reduced))
			}
			if err := p.CheckSolution(sol); err != nil {
				t.Fatal(err)
			}
			if sol.Cost < optimal.Cost-1e-6 {
				t.Fatalf("greedy %f beats optimal %f", sol.Cost, optimal.Cost)
			}
		}
	}
}

// TestSolveAnswersFromSeedWhenItFitsK pins the exact path's branch and
// what a trace shows of it: at a bound the unconstrained optimum fits,
// Solve returns that very design from one seqgraph.dp pass without a
// single kaware.sweep; one change tighter it runs the layers after the
// seed pass — over one table build either way.
func TestSolveAnswersFromSeedWhenItFitsK(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	const stages = 12
	m, configs := randomModel(rng, stages, 2)
	sink, agg := &spanAttrSink{name: SpanSolve}, obs.NewAggregator()
	p := &Problem{Stages: stages, Configs: configs, Initial: 0, K: Unconstrained, Model: m, Tracer: obs.NewTracer(sink, agg)}
	seed, err := SolveUnconstrained(bg, p)
	if err != nil {
		t.Fatal(err)
	}
	if seed.Changes < 3 {
		t.Fatalf("fixture's unconstrained optimum has %d changes; the binding row needs K >= 2 below it", seed.Changes)
	}
	for _, c := range []struct {
		k       int
		layered bool
		sweeps  int64
	}{{seed.Changes, false, 0}, {seed.Changes - 1, true, stages - 1}} {
		pk := *p
		pk.K = c.k
		agg.Reset()
		sol, err := Solve(bg, &pk, StrategyKAware)
		if err != nil {
			t.Fatal(err)
		}
		if got := sink.attrs["layered"]; got != c.layered {
			t.Errorf("K=%d (l=%d): solve span has layered=%v, want %v", c.k, seed.Changes, got, c.layered)
		}
		if got := sink.attrs["seed_changes"]; got != int64(seed.Changes) {
			t.Errorf("K=%d: solve span has seed_changes=%v, want %d", c.k, got, seed.Changes)
		}
		counts := map[string]int64{}
		for _, st := range agg.Snapshot() {
			counts[st.Name] = st.Count
		}
		if counts[SpanMatrixBuild] != 1 || counts[SpanSeqgraphDP] != 1 || counts[SpanKAwareSweep] != c.sweeps {
			t.Errorf("K=%d: trace has %d matrix.build, %d seqgraph.dp, %d kaware.sweep spans, want 1, 1, %d",
				c.k, counts[SpanMatrixBuild], counts[SpanSeqgraphDP], counts[SpanKAwareSweep], c.sweeps)
		}
		if !c.layered && !reflect.DeepEqual(sol.Designs, seed.Designs) {
			t.Errorf("K=%d: seed return changed the design", c.k)
		}
		if c.layered && (sol.Changes > c.k || sol.Cost < seed.Cost) {
			t.Errorf("K=%d: layered run returned %d changes at cost %v (unconstrained %v)", c.k, sol.Changes, sol.Cost, seed.Cost)
		}
	}
}

func TestSolveDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	m, configs := randomModel(rng, 5, 2)
	p := &Problem{Stages: 5, Configs: configs, Initial: 0, K: 2, Model: m}
	optimal, err := SolveKAware(bg, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range everySolver() {
		sol, err := s.run(bg, p)
		if err != nil {
			t.Fatalf("solver %s: %v", s.name, err)
		}
		if err := p.CheckSolution(sol); err != nil {
			t.Fatalf("solver %s: %v", s.name, err)
		}
		if sol.Cost < optimal.Cost-1e-6 {
			t.Fatalf("solver %s beats optimal", s.name)
		}
		// Exact solvers must match the optimum.
		if s.name == "kaware" || s.name == "ranking" {
			if !almostEqual(sol.Cost, optimal.Cost) {
				t.Fatalf("exact solver %s cost %f != optimal %f", s.name, sol.Cost, optimal.Cost)
			}
		}
	}
	if _, err := Solve(bg, p, "nonsense"); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestParseStrategy(t *testing.T) {
	for _, want := range Strategies() {
		if got, err := ParseStrategy(string(want)); err != nil || got != want {
			t.Errorf("ParseStrategy(%q) = %q, %v", want, got, err)
		}
	}
	if got, err := ParseStrategy(""); err != nil || got != StrategyKAware {
		t.Errorf("ParseStrategy(\"\") = %q, %v; want the kaware default", got, err)
	}
	_, err := ParseStrategy("kawre")
	if err == nil {
		t.Fatal("misspelt strategy accepted")
	}
	for _, s := range Strategies() {
		if !strings.Contains(err.Error(), string(s)) {
			t.Errorf("error %q does not list %s", err, s)
		}
	}
}

func TestSpaceBoundExcludesConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	m, configs := randomModel(rng, 5, 3)
	p := &Problem{
		Stages: 5, Configs: configs, Initial: 0, K: Unconstrained,
		SpaceBound: 1, Model: m, // only configs with at most one structure
	}
	sol, err := SolveUnconstrained(bg, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range sol.Designs {
		if c.Count() > 1 {
			t.Fatalf("design %v exceeds space bound", c)
		}
	}
	// A bound excluding everything is an error.
	p.SpaceBound = 0.5
	p.Configs = []Config{ConfigOf(0), ConfigOf(1)}
	if _, err := SolveUnconstrained(bg, p); err == nil {
		t.Error("empty usable set accepted")
	}
}

func TestCheckSolutionCatchesLies(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	m, configs := randomModel(rng, 4, 2)
	p := &Problem{Stages: 4, Configs: configs, Initial: 0, K: 1, Model: m}
	sol, err := SolveKAware(bg, p)
	if err != nil {
		t.Fatal(err)
	}
	lying := *sol
	lying.Cost += 5
	if err := p.CheckSolution(&lying); err == nil {
		t.Error("wrong cost accepted")
	}
	lying = *sol
	lying.Changes += 1
	if err := p.CheckSolution(&lying); err == nil {
		t.Error("wrong change count accepted")
	}
	short := &Solution{Designs: sol.Designs[:2], Cost: sol.Cost, Changes: sol.Changes}
	if err := p.CheckSolution(short); err == nil {
		t.Error("short solution accepted")
	}
}

func TestKAwareStaticSpecialCase(t *testing.T) {
	// With FreeEndpoints and K = 0, the solver must pick the single best
	// static configuration for the whole sequence — the classical static
	// design problem.
	rng := rand.New(rand.NewSource(73))
	m, configs := randomModel(rng, 8, 2)
	p := &Problem{Stages: 8, Configs: configs, Initial: 0, K: 0, Policy: FreeEndpoints, Model: m}
	sol, err := SolveKAware(bg, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(sol.Designs); i++ {
		if sol.Designs[i] != sol.Designs[0] {
			t.Fatal("k=0 design changes mid-sequence")
		}
	}
	// Must equal the explicit argmin over static choices.
	best := math.Inf(1)
	for _, c := range configs {
		total := m.Trans(p.Initial, c)
		for i := 0; i < p.Stages; i++ {
			total += m.Exec(i, c)
		}
		if total < best {
			best = total
		}
	}
	if !almostEqual(sol.Cost, best) {
		t.Errorf("static optimum %f != kaware k=0 %f", best, sol.Cost)
	}
}

func TestChangePolicyStrings(t *testing.T) {
	if FreeEndpoints.String() != "FreeEndpoints" || CountAll.String() != "CountAll" {
		t.Error("policy names wrong")
	}
}

func TestSolutionRuns(t *testing.T) {
	s := &Solution{Designs: []Config{1, 1, 2, 2, 2, 1}}
	runs := s.Runs()
	want := []Run{
		{Config: 1, Start: 0, Length: 2},
		{Config: 2, Start: 2, Length: 3},
		{Config: 1, Start: 5, Length: 1},
	}
	if len(runs) != len(want) {
		t.Fatalf("runs = %+v", runs)
	}
	for i := range want {
		if runs[i] != want[i] {
			t.Errorf("run %d = %+v, want %+v", i, runs[i], want[i])
		}
	}
	if (&Solution{}).Runs() != nil {
		t.Error("empty solution has runs")
	}
	// Runs cover every stage exactly once.
	total := 0
	for _, r := range runs {
		total += r.Length
	}
	if total != len(s.Designs) {
		t.Errorf("runs cover %d of %d stages", total, len(s.Designs))
	}
}

// TestChangeBoundAboveStageCount pins that a change bound no sequence
// can reach is free: 50 stages have at most 49 counted changes, so
// K = 200 000 must answer with the unconstrained optimum and size its
// tables by the stage count — the layered DP used to allocate 171 MB of
// parent links here, the partitioned knapsack K+1-wide rows.
func TestChangeBoundAboveStageCount(t *testing.T) {
	const hugeK = 200_000
	m, configs := randomGroupedModel(rand.New(rand.NewSource(5)), 50, 2, 1)
	problem := func(k int, policy ChangePolicy) *Problem {
		return &Problem{Stages: 50, Configs: configs, Initial: 0, K: k, Policy: policy, Model: m, Parallelism: 1}
	}
	for _, policy := range []ChangePolicy{FreeEndpoints, CountAll} {
		want, err := SolveUnconstrained(bg, problem(Unconstrained, policy))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []namedSolver{
			{"kaware", SolveKAware},
			{"partitioned", func(ctx context.Context, p *Problem) (*Solution, error) {
				return Solve(ctx, p, StrategyPartitioned)
			}},
			{"beam", func(ctx context.Context, p *Problem) (*Solution, error) {
				return solvePartitioned(ctx, p, beamWidth, true)
			}},
		} {
			p := problem(hugeK, policy)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			got, err := s.run(bg, p)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatalf("%s/%v: %v", s.name, policy, err)
			}
			if got.Cost != want.Cost || !reflect.DeepEqual(got.Designs, want.Designs) {
				t.Errorf("%s/%v: (%v, %v), want the unconstrained optimum (%v, %v)",
					s.name, policy, got.Cost, got.Designs, want.Cost, want.Designs)
			}
			if err := p.CheckSolution(got); err != nil {
				t.Errorf("%s/%v: %v", s.name, policy, err)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
				t.Errorf("%s/%v: solve allocated %d bytes, want under 1 MiB", s.name, policy, alloc)
			}
		}
		// SweepK keeps one point per requested bound and is flat above
		// the stage count.
		curve, err := SweepK(bg, problem(0, policy), 120)
		if err != nil {
			t.Fatal(err)
		}
		if len(curve) != 121 || !reflect.DeepEqual(curve[120], KPoint{K: 120, Feasible: true, Cost: want.Cost,
			ExecCost: want.ExecCost, TransCost: want.TransCost, Changes: want.Changes, Designs: want.Designs}) {
			t.Errorf("%v: SweepK(120) has %d points ending %+v, want 121 ending at the unconstrained optimum %+v",
				policy, len(curve), curve[len(curve)-1], want)
		}
	}
}
