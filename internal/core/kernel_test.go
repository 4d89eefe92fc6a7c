package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// additiveModel is a synthetic AdditiveTransModel: TRANS decomposes
// into per-structure build and drop prices, the shape the hypercube
// kernel requires. Exec is raw-config-indexed so subsetted candidate
// lists still cost correctly.
type additiveModel struct {
	exec      [][]float64 // [stage][rawConfig]
	add, drop []float64   // [structure]
}

func (m *additiveModel) Exec(stage int, c Config) float64 { return m.exec[stage][c] }

func (m *additiveModel) Trans(from, to Config) float64 {
	total := 0.0
	for _, s := range (to &^ from).Structures() {
		total += m.add[s]
	}
	for _, s := range (from &^ to).Structures() {
		total += m.drop[s]
	}
	return total
}

func (m *additiveModel) Size(c Config) float64             { return float64(c.Count()) }
func (m *additiveModel) TransParts() (add, drop []float64) { return m.add, m.drop }

var _ AdditiveTransModel = (*additiveModel)(nil)

// randomAdditiveModel builds a random additive model over all 2^structs
// configurations.
func randomAdditiveModel(rng *rand.Rand, stages, structs int) (*additiveModel, []Config) {
	n := 1 << uint(structs)
	m := &additiveModel{
		exec: make([][]float64, stages),
		add:  make([]float64, structs),
		drop: make([]float64, structs),
	}
	for i := range m.exec {
		row := make([]float64, n)
		for j := range row {
			row[j] = rng.Float64() * 100
		}
		m.exec[i] = row
	}
	for s := 0; s < structs; s++ {
		m.add[s] = rng.Float64() * 50
		m.drop[s] = rng.Float64() * 10
	}
	configs := make([]Config, n)
	for i := range configs {
		configs[i] = Config(i)
	}
	return m, configs
}

// subsetConfigs keeps each configuration of a list longer than four
// with probability 0.7, and at least two of them.
func subsetConfigs(rng *rand.Rand, configs []Config) []Config {
	if len(configs) <= 4 {
		return configs
	}
	kept := make([]Config, 0, len(configs))
	for _, c := range configs {
		if rng.Float64() < 0.7 {
			kept = append(kept, c)
		}
	}
	if len(kept) < 2 {
		kept = configs[:2]
	}
	return kept
}

// runKernelCase asserts the dense and hypercube kernels agree on one
// randomized problem: equal solve costs (up to float association), valid
// solutions, identical feasibility, equal SweepK curves, equal ranking
// outcomes, and bit-identical results between serial and Parallelism=4
// hypercube sweeps.
func runKernelCase(t *testing.T, seed int64, stages, structs, k int, policy ChangePolicy, withFinal, subset bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m, configs := randomAdditiveModel(rng, stages, structs)
	if subset {
		configs = subsetConfigs(rng, configs)
	}
	// The initial configuration is any raw lattice point — sometimes
	// outside the candidate list, which the solvers must tolerate.
	initial := Config(rng.Intn(1 << uint(structs)))
	base := Problem{
		Stages: stages, Configs: configs, Initial: initial,
		K: k, Policy: policy, Model: m, Parallelism: 1,
	}
	if withFinal {
		f := configs[rng.Intn(len(configs))]
		base.Final = &f
	}

	dense := base
	dense.kernel = kernelDense
	hyper := base
	hyper.kernel = kernelHypercube
	hyperPar := hyper
	hyperPar.Parallelism = 4

	if got := resolveKernel(&hyper, configs).kind; got != kernelHypercube {
		t.Fatalf("additive model not eligible for the hypercube kernel (got %v)", got)
	}

	dSol, dErr := SolveKAware(bg, &dense)
	hSol, hErr := SolveKAware(bg, &hyper)
	pSol, pErr := SolveKAware(bg, &hyperPar)
	if (dErr == nil) != (hErr == nil) || (hErr == nil) != (pErr == nil) {
		t.Fatalf("feasibility disagrees: dense err %v, hyper err %v, hyper(P4) err %v", dErr, hErr, pErr)
	}
	if dErr == nil {
		if !almostEqual(dSol.Cost, hSol.Cost) {
			t.Fatalf("k-aware cost: dense %v != hyper %v", dSol.Cost, hSol.Cost)
		}
		for _, pair := range []struct {
			name string
			p    *Problem
			s    *Solution
		}{{"dense", &dense, dSol}, {"hyper", &hyper, hSol}} {
			if err := pair.p.CheckSolution(pair.s); err != nil {
				t.Fatalf("%s solution invalid: %v", pair.name, err)
			}
		}
		// The parallel layer sweep must be bit-identical to serial.
		if pSol.Cost != hSol.Cost {
			t.Fatalf("hyper parallel cost %v != serial %v", pSol.Cost, hSol.Cost)
		}
		for i := range hSol.Designs {
			if hSol.Designs[i] != pSol.Designs[i] {
				t.Fatalf("hyper parallel design diverges at stage %d", i)
			}
		}

		// Ranking enumerates paths, which gets expensive on wide candidate
		// sets and long sequences with small k; the kernel-equivalence
		// property is fully exercised on the smaller shapes.
		if len(configs) <= 20 && stages <= 8 {
			dRank, dRankErr := SolveRanking(bg, &dense, RankingOptions{Prune: true})
			hRank, hRankErr := SolveRanking(bg, &hyper, RankingOptions{Prune: true})
			if (dRankErr == nil) != (hRankErr == nil) {
				t.Fatalf("ranking feasibility disagrees: dense %v, hyper %v", dRankErr, hRankErr)
			}
			if dRankErr == nil && dRank.Solution != nil && hRank.Solution != nil {
				if !almostEqual(dRank.Solution.Cost, hRank.Solution.Cost) {
					t.Fatalf("ranking cost: dense %v != hyper %v", dRank.Solution.Cost, hRank.Solution.Cost)
				}
				if !almostEqual(dRank.Solution.Cost, dSol.Cost) {
					t.Fatalf("ranking cost %v != k-aware cost %v", dRank.Solution.Cost, dSol.Cost)
				}
			}
		}
	}

	dCurve, dErr2 := SweepK(bg, &dense, k+2)
	hCurve, hErr2 := SweepK(bg, &hyperPar, k+2)
	if (dErr2 == nil) != (hErr2 == nil) {
		t.Fatalf("SweepK disagrees: dense err %v, hyper err %v", dErr2, hErr2)
	}
	if dErr2 == nil {
		for i := range dCurve {
			if dCurve[i].Feasible != hCurve[i].Feasible {
				t.Fatalf("SweepK point %d feasibility: dense %v != hyper %v", i, dCurve[i].Feasible, hCurve[i].Feasible)
			}
			if dCurve[i].Feasible && !almostEqual(dCurve[i].Cost, hCurve[i].Cost) {
				t.Fatalf("SweepK point %d cost: dense %v != hyper %v", i, dCurve[i].Cost, hCurve[i].Cost)
			}
		}
	}

	dense.K, hyper.K = Unconstrained, Unconstrained
	dU, dUErr := SolveUnconstrained(bg, &dense)
	hU, hUErr := SolveUnconstrained(bg, &hyper)
	if (dUErr == nil) != (hUErr == nil) {
		t.Fatalf("unconstrained disagrees: dense err %v, hyper err %v", dUErr, hUErr)
	}
	if dUErr == nil && !almostEqual(dU.Cost, hU.Cost) {
		t.Fatalf("unconstrained cost: dense %v != hyper %v", dU.Cost, hU.Cost)
	}
}

// TestKernelEquivalence is the property test over a randomized grid of
// problem shapes: both change policies, constrained and free final
// endpoints, subsetted candidate lists, k from 0 up, lattices up to the
// 8 structures (256 configurations) where the dense kernel's all-pairs
// scan is still affordable.
func TestKernelEquivalence(t *testing.T) {
	seed := int64(0)
	for _, structs := range []int{1, 2, 4, 6, 8} {
		for _, stages := range []int{1, 2, 7, 23} {
			for _, k := range []int{0, 1, 3} {
				for _, policy := range []ChangePolicy{FreeEndpoints, CountAll} {
					seed++
					withFinal := seed%2 == 0
					subset := seed%3 == 0
					runKernelCase(t, seed, stages, structs, k, policy, withFinal, subset)
				}
			}
		}
	}
}

// FuzzKernelEquivalence fuzzes the same property; CI runs it with a
// short budget on every PR (make fuzz-smoke).
func FuzzKernelEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(4), uint8(2), false, false, false)
	f.Add(int64(2), uint8(3), uint8(1), uint8(0), true, true, false)
	f.Add(int64(3), uint8(9), uint8(5), uint8(4), false, true, true)
	f.Add(int64(4), uint8(2), uint8(2), uint8(1), true, false, true)
	f.Fuzz(func(t *testing.T, seed int64, nRaw, structsRaw, kRaw uint8, countAll, withFinal, subset bool) {
		stages := 1 + int(nRaw%10)
		structs := 1 + int(structsRaw%6)
		k := int(kRaw % 5)
		policy := FreeEndpoints
		if countAll {
			policy = CountAll
		}
		runKernelCase(t, seed, stages, structs, k, policy, withFinal, subset)
	})
}

// TestKernelFallbacks pins the eligibility rules: models that cannot
// prove additive transitions must run on the dense kernel even when the
// hypercube is requested.
func TestKernelFallbacks(t *testing.T) {
	rng := rand.New(rand.NewSource(7))

	t.Run("non-additive model", func(t *testing.T) {
		m, configs := randomModel(rng, 5, 3)
		p := &Problem{Stages: 5, Configs: configs, Initial: 0, K: 1, Model: m, kernel: kernelHypercube}
		if got := resolveKernel(p, configs).kind; got != kernelDense {
			t.Fatalf("non-additive model resolved to %v, want dense", got)
		}
		// The solve still works (through the dense fallback) and matches
		// an explicitly dense solve bit for bit.
		forced := *p
		forced.kernel = kernelDense
		a, errA := SolveKAware(bg, p)
		b, errB := SolveKAware(bg, &forced)
		if errA != nil || errB != nil {
			t.Fatalf("solve errors: %v, %v", errA, errB)
		}
		if a.Cost != b.Cost {
			t.Fatalf("fallback cost %v != dense cost %v", a.Cost, b.Cost)
		}
	})

	t.Run("negative part", func(t *testing.T) {
		m, configs := randomAdditiveModel(rng, 4, 3)
		m.add[1] = -2
		p := &Problem{Stages: 4, Configs: configs, Initial: 0, K: 1, Model: m, kernel: kernelHypercube}
		if got := resolveKernel(p, configs).kind; got != kernelDense {
			t.Fatalf("negative add part resolved to %v, want dense", got)
		}
	})

	t.Run("non-finite part", func(t *testing.T) {
		m, configs := randomAdditiveModel(rng, 4, 3)
		m.drop[0] = math.Inf(1)
		p := &Problem{Stages: 4, Configs: configs, Initial: 0, K: 1, Model: m, kernel: kernelHypercube}
		if got := resolveKernel(p, configs).kind; got != kernelDense {
			t.Fatalf("infinite drop part resolved to %v, want dense", got)
		}
		m.drop[0] = math.NaN()
		if got := resolveKernel(p, configs).kind; got != kernelDense {
			t.Fatalf("NaN drop part resolved to %v, want dense", got)
		}
	})

	t.Run("parts shorter than span", func(t *testing.T) {
		m, _ := randomAdditiveModel(rng, 4, 3)
		configs := []Config{0, ConfigOf(0), ConfigOf(5)} // bit 5 beyond len(parts)=3
		p := &Problem{Stages: 4, Configs: configs, Initial: 0, K: 1, Model: m, kernel: kernelHypercube}
		if got := resolveKernel(p, configs).kind; got != kernelDense {
			t.Fatalf("span outside parts resolved to %v, want dense", got)
		}
	})

	t.Run("auto cost comparison", func(t *testing.T) {
		m, configs := randomAdditiveModel(rng, 4, 4)
		// Narrow candidate list over a 4-bit span: 2·4·16 = 128 lattice
		// steps >= 7² = 49 dense steps, so auto stays dense...
		narrow := []Config{0, 1, 2, 3, 4, 5, ConfigOf(3)}
		p := &Problem{Stages: 4, Configs: narrow, Initial: 0, K: 1, Model: m}
		if got := resolveKernel(p, narrow).kind; got != kernelDense {
			t.Fatalf("auto picked %v on a narrow list, want dense", got)
		}
		// ...but the full 16-point lattice (128 < 256) flips to hypercube,
		// and forcing the hypercube on the narrow list overrides the
		// comparison.
		if got := resolveKernel(p, configs).kind; got != kernelHypercube {
			t.Fatalf("auto picked %v on the full lattice, want hypercube", got)
		}
		p.kernel = kernelHypercube
		if got := resolveKernel(p, narrow).kind; got != kernelHypercube {
			t.Fatalf("forced hypercube resolved to %v", got)
		}
	})
}

// TestSolveCacheReuse asserts that solves sharing a model through an
// attached cache evaluate the cost tables once, and that a model swap
// invalidates the entry.
func TestSolveCacheReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m, configs := randomModel(rng, 12, 4)
	p := &Problem{
		Stages: 12, Configs: configs, Initial: 0, K: 2, Model: m,
		Cache: NewSolveCache(), Metrics: &Metrics{},
	}
	if _, err := SolveKAware(bg, p); err != nil {
		t.Fatal(err)
	}
	if got := p.Metrics.Snapshot().MatrixBuilds; got != 1 {
		t.Fatalf("MatrixBuilds after first solve = %d, want 1", got)
	}
	if _, err := SweepK(bg, p, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := SolveUnconstrained(bg, p); err != nil {
		t.Fatal(err)
	}
	if got := p.Metrics.Snapshot().MatrixBuilds; got != 1 {
		t.Fatalf("MatrixBuilds after reusing solves = %d, want 1", got)
	}
	if got := p.Metrics.Snapshot().MatrixReuses; got == 0 {
		t.Fatal("MatrixReuses = 0, want > 0")
	}

	// A different model invalidates the entry.
	m2, _ := randomModel(rng, 12, 4)
	p.Model = m2
	if _, err := SolveKAware(bg, p); err != nil {
		t.Fatal(err)
	}
	if got := p.Metrics.Snapshot().MatrixBuilds; got != 2 {
		t.Fatalf("MatrixBuilds after model swap = %d, want 2", got)
	}
}

// TestSolveCacheSplitBitwise asserts the cached SequenceCostSplit fast
// path is bit-identical to the model path — the invariant the explain
// layer's exact-sum attribution depends on.
func TestSolveCacheSplitBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m, configs := randomModel(rng, 20, 4)
	final := configs[3]
	cached := &Problem{
		Stages: 20, Configs: configs, Initial: 5, Final: &final, K: 3,
		Model: m, Cache: NewSolveCache(), Metrics: &Metrics{},
	}
	sol, err := SolveKAware(bg, cached)
	if err != nil {
		t.Fatal(err)
	}
	plain := *cached
	plain.Cache = nil
	for trial := 0; trial < 20; trial++ {
		designs := make([]Config, 20)
		for i := range designs {
			designs[i] = configs[rng.Intn(len(configs))]
		}
		ce, ct := cached.SequenceCostSplit(designs)
		pe, pt := plain.SequenceCostSplit(designs)
		if ce != pe || ct != pt {
			t.Fatalf("cached split (%v, %v) != model split (%v, %v)", ce, ct, pe, pt)
		}
	}
	// The solution's own designs too (the CheckSolution hot path).
	ce, ct := cached.SequenceCostSplit(sol.Designs)
	pe, pt := plain.SequenceCostSplit(sol.Designs)
	if ce != pe || ct != pt {
		t.Fatalf("cached split of solution (%v, %v) != model split (%v, %v)", ce, ct, pe, pt)
	}
	if err := cached.CheckSolution(sol); err != nil {
		t.Fatal(err)
	}
}

// TestSolveCacheTransUpgrade asserts a hypercube-built entry is upgraded
// in place with the all-pairs TRANS rows when a dense consumer follows,
// without a second EXEC evaluation.
func TestSolveCacheTransUpgrade(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	m, configs := randomAdditiveModel(rng, 10, 5)
	p := &Problem{
		Stages: 10, Configs: configs, Initial: 0, K: 2, Model: m,
		kernel: kernelHypercube, Cache: NewSolveCache(), Metrics: &Metrics{},
	}
	hSol, err := SolveKAware(bg, p)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Metrics.Snapshot().MatrixBuilds; got != 1 {
		t.Fatalf("MatrixBuilds after hypercube solve = %d, want 1", got)
	}
	p.kernel = kernelDense
	dSol, err := SolveKAware(bg, p)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Metrics.Snapshot().MatrixBuilds; got != 1 {
		t.Fatalf("MatrixBuilds after dense upgrade = %d, want 1 (EXEC must not rebuild)", got)
	}
	if got := p.Metrics.Snapshot().MatrixReuses; got == 0 {
		t.Fatal("MatrixReuses = 0 after upgrade, want > 0")
	}
	if !almostEqual(hSol.Cost, dSol.Cost) {
		t.Fatalf("hypercube cost %v != dense cost %v", hSol.Cost, dSol.Cost)
	}
}

// benchProblem builds the benchmark problem: an additive model over the
// full structs-bit lattice.
func benchProblem(structs int, kernel transKernel) *Problem {
	rng := rand.New(rand.NewSource(42))
	m, configs := randomAdditiveModel(rng, 30, structs)
	return &Problem{
		Stages: 30, Configs: configs, Initial: 0, K: 4,
		Model: m, kernel: kernel, Parallelism: 1,
	}
}

// BenchmarkKAwareKernels measures the exact k-aware solve under both
// kernels at m=8 (256 configurations); allocs/op documents the buffer
// reuse across stages and layers. The hypercube kernel also runs at 10
// structures (1024 configurations), where the dense kernel's 4^10
// relaxations per stage and layer are a timeout, not a benchmark — on
// one worker and on a crew of two sharing the layers.
func BenchmarkKAwareKernels(b *testing.B) {
	for _, bench := range []struct {
		name                 string
		kernel               transKernel
		structs, parallelism int
	}{
		{"dense", kernelDense, 8, 1},
		{"hypercube", kernelHypercube, 8, 1},
		{"hypercube/structs=10", kernelHypercube, 10, 1},
		{"hypercube/structs=10/parallelism=2", kernelHypercube, 10, 2},
	} {
		b.Run(bench.name, func(b *testing.B) {
			p := benchProblem(bench.structs, bench.kernel)
			p.Parallelism = bench.parallelism
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := SolveKAware(bg, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSeedPass times the exact path's seed pass alone — the
// unconstrained stage loop over tables already built — for 360 stages
// over full lattices of 6 to 10 structures, on one worker and split
// between two. The split is forced at every width, so the cells show
// where it starts to pay: splitMinBits. The slide cells time the pass
// over a window slid by one stage past a retained pass, at 10
// structures, beside the cold cells of the same width.
func BenchmarkSeedPass(b *testing.B) {
	for _, structs := range []int{6, 7, 8, 10} {
		c := splitCase{stages: 360, structs: structs}
		m, k, parents := forwardInputs(b, c, 42)
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("structs=%d/workers=%d", structs, workers), func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := k.runForward(bg, m, parents, workers == 2); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		if structs != 10 {
			continue
		}
		old, _, err := k.slide(bg, m, nil, false)
		if err != nil {
			b.Fatal(err)
		}
		slid := slideEdit{head: 1, tail: 1}.apply(rand.New(rand.NewSource(42)), c.problem(42, 2), c.shape)
		sm, skern, err := slid.solveInputs(bg)
		if err != nil {
			b.Fatal(err)
		}
		sk := skern.(*hyperKernel)
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("structs=%d/workers=%d/slide", structs, workers), func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_, reused, err := sk.slide(bg, sm, old, workers == 2)
					if err != nil {
						b.Fatal(err)
					}
					if reused == 0 {
						b.Fatal("the slide reused no stage")
					}
				}
			})
		}
	}
}
