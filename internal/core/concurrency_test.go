package core

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
)

// TestBuildMatricesParallelMatchesSerial asserts the determinism
// contract of the parallel costing layer: the worker-pool build
// produces bit-identical matrices to the serial build, because every
// cell is computed by the same arithmetic and each worker owns whole
// rows.
func TestBuildMatricesParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	m, configs := randomModel(rng, 40, 6) // 64 configurations
	final := configs[1]
	serial := &Problem{Stages: 40, Configs: configs, Initial: configs[3], Final: &final,
		K: 2, Model: m, Parallelism: 1}
	parallel := *serial
	parallel.Parallelism = 8

	ms, err := serial.buildMatrices(bg, configs, true)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := parallel.buildMatrices(bg, configs, true)
	if err != nil {
		t.Fatal(err)
	}

	for i := range ms.exec {
		for j := range ms.exec[i] {
			if ms.exec[i][j] != mp.exec[i][j] {
				t.Fatalf("exec[%d][%d]: serial %v != parallel %v", i, j, ms.exec[i][j], mp.exec[i][j])
			}
		}
	}
	for i := range ms.trans {
		for j := range ms.trans[i] {
			if ms.trans[i][j] != mp.trans[i][j] {
				t.Fatalf("trans[%d][%d]: serial %v != parallel %v", i, j, ms.trans[i][j], mp.trans[i][j])
			}
		}
	}
	for j := range ms.initTrans {
		if ms.initTrans[j] != mp.initTrans[j] {
			t.Fatalf("initTrans[%d] differs", j)
		}
		if ms.finalTrans[j] != mp.finalTrans[j] {
			t.Fatalf("finalTrans[%d] differs", j)
		}
	}
}

// TestRankingParallelSweepDeterministic runs SolveRanking with a
// candidate set wide enough to trigger the parallel cost-to-go sweep
// and asserts the outcome is identical to the serial sweep, expansion
// for expansion.
func TestRankingParallelSweepDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	m, configs := randomModel(rng, 6, 6) // 64 >= parallelSweepMinConfigs
	serial := &Problem{Stages: 6, Configs: configs, Initial: 0, K: 2, Model: m, Parallelism: 1}
	parallel := *serial
	parallel.Parallelism = 8

	rs, err := SolveRanking(bg, serial, RankingOptions{Prune: true})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := SolveRanking(bg, &parallel, RankingOptions{Prune: true})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Expansions != rp.Expansions || rs.PathsRanked != rp.PathsRanked {
		t.Fatalf("serial (%d expansions) and parallel (%d) sweeps diverged", rs.Expansions, rp.Expansions)
	}
	if rs.Solution.Cost != rp.Solution.Cost {
		t.Fatalf("costs diverged: %v vs %v", rs.Solution.Cost, rp.Solution.Cost)
	}
	for i := range rs.Solution.Designs {
		if rs.Solution.Designs[i] != rp.Solution.Designs[i] {
			t.Fatalf("designs diverged at stage %d", i)
		}
	}
}

// TestSharedProblemAllStrategiesConcurrently is the -race stress test:
// one shared Problem solved by every strategy from many goroutines at
// once. Under `go test -race` this fails if any solver phase or the
// model contract is unsafe to share; it also cross-checks that repeated
// concurrent solves of the same strategy agree with its serial answer.
func TestSharedProblemAllStrategiesConcurrently(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	// Small enough that even plain ranking (exponential for small k)
	// terminates; the point here is shared-state safety, not scale.
	m, configs := randomModel(rng, 8, 3)
	p := &Problem{Stages: 8, Configs: configs, Initial: 0, K: 2, Model: m, Metrics: &Metrics{}}

	// Serial reference answer per strategy.
	want := map[string]float64{}
	for _, s := range everySolver() {
		sol, err := s.run(bg, p)
		if err != nil {
			t.Fatalf("solver %s (serial): %v", s.name, err)
		}
		want[s.name] = sol.Cost
	}

	const repetitions = 4
	var wg sync.WaitGroup
	// Two sends at most per goroutine.
	errs := make(chan error, 2*len(everySolver())*repetitions)
	for _, s := range everySolver() {
		for r := 0; r < repetitions; r++ {
			wg.Add(1)
			go func(s namedSolver) {
				defer wg.Done()
				sol, err := s.run(bg, p)
				if err != nil {
					errs <- err
					return
				}
				if sol.Cost != want[s.name] {
					errs <- errors.New("solver " + s.name + ": concurrent solve diverged from serial")
				}
				if err := p.CheckSolution(sol); err != nil {
					errs <- err
				}
			}(s)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if p.Metrics.Snapshot().MatrixBuilds == 0 {
		t.Error("metrics recorded no matrix builds")
	}
	if p.Metrics.Snapshot().MatrixBuildTime <= 0 {
		t.Error("metrics recorded no matrix-build time")
	}
}

// TestMergeCountAllKZeroInfeasibleInitial is the regression test for
// the merge escape hatch: under CountAll with K = 0, the whole sequence
// must stay on the initial configuration — when that configuration is
// excluded by the space bound, SolveMerge must report infeasibility
// instead of returning a solution CheckSolution rejects.
func TestMergeCountAllKZeroInfeasibleInitial(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	m, configs := randomModel(rng, 5, 2)
	// size = structure count, so SpaceBound 1 excludes ConfigOf(0, 1).
	p := &Problem{Stages: 5, Configs: configs, Initial: ConfigOf(0, 1),
		SpaceBound: 1, K: 0, Policy: CountAll, Model: m}
	sol, _, err := SolveMergeFromUnconstrained(bg, p)
	if err == nil {
		t.Fatalf("infeasible problem returned solution %+v", sol)
	}
	if sol != nil {
		t.Fatalf("error return carried a solution: %+v", sol)
	}
	// The k-aware solver agrees the problem is infeasible.
	if _, err := SolveKAware(bg, p); err == nil {
		t.Error("SolveKAware accepted the infeasible problem")
	}
	// The feasible sibling (initial inside the bound) still works.
	ok := *p
	ok.Initial = ConfigOf(0)
	sol, _, err = SolveMergeFromUnconstrained(bg, &ok)
	if err != nil {
		t.Fatal(err)
	}
	if err := ok.CheckSolution(sol); err != nil {
		t.Fatal(err)
	}
	for _, c := range sol.Designs {
		if c != ok.Initial {
			t.Fatalf("CountAll k=0 design moved off the initial configuration")
		}
	}
}

// TestRankingBudgetTypedError is the regression test for the
// nil-solution escape: when the expansion budget runs out,
// RankingResult.Err is an error wrapping ErrRankingBudget, so a caller
// that needs a solution has a typed failure to return instead of a nil
// Solution.
func TestRankingBudgetTypedError(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	m, configs := randomModel(rng, 10, 2)
	p := &Problem{Stages: 10, Configs: configs, Initial: 0, K: 0, Model: m}

	res, err := SolveRanking(bg, p, RankingOptions{MaxExpansions: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exhausted || res.Solution != nil {
		t.Fatalf("tiny budget not exhausted: %+v", res)
	}
	if err := res.Err(); !errors.Is(err, ErrRankingBudget) {
		t.Fatalf("RankingResult.Err() = %v, want ErrRankingBudget", err)
	}

	// A successful ranking reports no error.
	res2, err := SolveRanking(bg, p, RankingOptions{Prune: true})
	if err != nil || res2.Solution == nil {
		t.Fatalf("feasible ranking failed: (%+v, %v)", res2, err)
	}
	if res2.Err() != nil {
		t.Fatalf("Err() non-nil on success: %v", res2.Err())
	}
}

// TestValidateWithoutInitialInConfigs pins the decided contract: the
// candidate list need not contain the initial configuration; such
// problems validate and solve, the design simply never revisits C0.
func TestValidateWithoutInitialInConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	m, configs := randomModel(rng, 4, 2)
	outside := Config(1 << 40) // not in configs
	// tableModel indexes by raw config value, so wrap it in a model that
	// tolerates the outside initial as a TRANS source.
	p := &Problem{Stages: 4, Configs: configs, Initial: outside, K: 1,
		Model: outsideModel{tableModel: m, outside: outside}}
	if err := p.Validate(); err != nil {
		t.Fatalf("problem without initial in Configs rejected: %v", err)
	}
	sol, err := SolveKAware(bg, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckSolution(sol); err != nil {
		t.Fatal(err)
	}
	for _, c := range sol.Designs {
		if c == outside {
			t.Fatal("design used a configuration outside the candidate list")
		}
	}
}

// outsideModel extends a tableModel with one extra configuration that
// is a valid TRANS source/SIZE subject but never appears in tables.
type outsideModel struct {
	*tableModel
	outside Config
}

func (m outsideModel) Trans(from, to Config) float64 {
	if from == m.outside || to == m.outside {
		if from == to {
			return 0
		}
		return 5
	}
	return m.tableModel.Trans(from, to)
}

func (m outsideModel) Size(c Config) float64 {
	if c == m.outside {
		return 1
	}
	return m.tableModel.Size(c)
}
