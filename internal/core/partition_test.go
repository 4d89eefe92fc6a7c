package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dyndesign/internal/obs"
)

// groupedModel is a synthetic InteractionModel: the structure bits are
// split into disjoint interaction groups, EXEC decomposes as a base
// term plus one term per group depending only on the group's projection
// of the configuration, and TRANS is per-structure additive. Costs are
// integer-valued so every sum is exact in float64 — partitioned
// recombination and the monolithic exact solve must then agree to the
// last bit whenever the reported gap is zero.
type groupedModel struct {
	additiveModel
	groups []Config
}

func (m *groupedModel) ExecInteractions() []Config { return m.groups }

var (
	_ InteractionModel   = (*groupedModel)(nil)
	_ AdditiveTransModel = (*groupedModel)(nil)
)

// randomGroupedModel builds a grouped model over nGroups consecutive
// bit-ranges of bitsPer structures each, with integer costs.
func randomGroupedModel(rng *rand.Rand, stages, nGroups, bitsPer int) (*groupedModel, []Config) {
	structs := nGroups * bitsPer
	n := 1 << uint(structs)
	m := &groupedModel{
		additiveModel: additiveModel{
			exec: make([][]float64, stages),
			add:  make([]float64, structs),
			drop: make([]float64, structs),
		},
		groups: make([]Config, nGroups),
	}
	for g := 0; g < nGroups; g++ {
		m.groups[g] = ((1 << uint(bitsPer)) - 1) << uint(g*bitsPer)
	}
	for s := 0; s < structs; s++ {
		m.add[s] = float64(rng.Intn(40))
		m.drop[s] = float64(rng.Intn(10))
	}
	// Per-group term tables: term[g][stage][projection >> shift].
	for i := 0; i < stages; i++ {
		base := float64(rng.Intn(100))
		row := make([]float64, n)
		for j := range row {
			row[j] = base
		}
		m.exec[i] = row
	}
	for g := 0; g < nGroups; g++ {
		shift := uint(g * bitsPer)
		sub := 1 << uint(bitsPer)
		for i := 0; i < stages; i++ {
			term := make([]float64, sub)
			for v := range term {
				term[v] = float64(rng.Intn(60))
			}
			for j := 0; j < n; j++ {
				m.exec[i][j] += term[(j>>shift)&(sub-1)]
			}
		}
	}
	configs := make([]Config, n)
	for i := range configs {
		configs[i] = Config(i)
	}
	return m, configs
}

// components is the number of independent sub-lattices the partitioned
// solver splits p into: 1 when it does not factor.
func components(t *testing.T, p *Problem) int {
	t.Helper()
	usable, err := p.usableConfigs()
	if err != nil {
		t.Fatal(err)
	}
	if plan := partitionConfigs(p, usable); plan != nil {
		return len(plan.masks)
	}
	return 1
}

// interactionsOnly hides every capability of a grouped model but
// ExecInteractions.
type interactionsOnly struct{ m *groupedModel }

func (o interactionsOnly) Exec(stage int, c Config) float64 { return o.m.Exec(stage, c) }
func (o interactionsOnly) Trans(from, to Config) float64    { return o.m.Trans(from, to) }
func (o interactionsOnly) Size(c Config) float64            { return o.m.Size(c) }
func (o interactionsOnly) ExecInteractions() []Config       { return o.m.groups }

// runPartitionCase asserts the partitioned solver's contract on one
// randomized grouped problem against the monolithic exact solve: the
// solution is feasible, the gap is non-negative, the cost sandwich
// Cost − Gap ≤ OPT ≤ Cost holds, and a zero gap means bitwise cost
// equality (integer costs make float sums exact).
func runPartitionCase(t *testing.T, seed int64, stages, nGroups, bitsPer, k int, policy ChangePolicy, withFinal bool, width int, forceBeam bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m, configs := randomGroupedModel(rng, stages, nGroups, bitsPer)
	initial := configs[rng.Intn(len(configs))]
	p := &Problem{
		Stages: stages, Configs: configs, Initial: initial,
		K: k, Policy: policy, Model: m, Parallelism: 1,
	}
	if withFinal {
		f := configs[rng.Intn(len(configs))]
		p.Final = &f
	}
	exactP := *p
	exact, exactErr := SolveKAware(bg, &exactP)
	ps, psErr := solvePartitioned(bg, p, width, forceBeam)
	if (exactErr == nil) != (psErr == nil) {
		t.Fatalf("feasibility disagrees: exact err %v, partitioned err %v", exactErr, psErr)
	}
	if exactErr != nil {
		return
	}
	if err := p.CheckSolution(ps); err != nil {
		t.Fatalf("partitioned solution invalid: %v", err)
	}
	if ps.Gap < 0 {
		t.Fatalf("negative gap %v", ps.Gap)
	}
	const tol = 1e-6
	if ps.Cost < exact.Cost-tol {
		t.Fatalf("partitioned cost %v beats the exact optimum %v", ps.Cost, exact.Cost)
	}
	if ps.Cost-ps.Gap > exact.Cost+tol {
		t.Fatalf("lower bound not admissible: cost %v − gap %v > optimum %v", ps.Cost, ps.Gap, exact.Cost)
	}
	if ps.Gap == 0 && ps.Cost != exact.Cost {
		t.Fatalf("gap 0 but cost %v != exact %v (integer costs must agree bitwise)", ps.Cost, exact.Cost)
	}
	if got := components(t, p); got != nGroups {
		t.Fatalf("grouped cross-product problem split into %d components, want %d", got, nGroups)
	}
}

// TestPartitionedMatchesExact sweeps the randomized grid: factorable
// shapes under both policies, constrained and free finals, exact and
// forced-beam component paths.
func TestPartitionedMatchesExact(t *testing.T) {
	seed := int64(100)
	for _, nGroups := range []int{2, 3} {
		for _, bitsPer := range []int{1, 2} {
			for _, stages := range []int{1, 5, 12} {
				for _, k := range []int{0, 1, 2, Unconstrained} {
					for _, policy := range []ChangePolicy{FreeEndpoints, CountAll} {
						seed++
						runPartitionCase(t, seed, stages, nGroups, bitsPer, k,
							policy, seed%2 == 0, beamWidth, seed%5 == 0)
					}
				}
			}
		}
	}
	// The beam where it actually prunes: one unfactorable 7- and 9-bit
	// clique (128 and 512 candidates, three layers each) over 64 stages
	// at k=2, forced through a beam of width 128. Every grid shape above
	// fits inside the narrowest beam, so there the search is exhaustive;
	// here it is not, and the sandwich is all that may be asserted.
	for _, bits := range []int{7, 9} {
		seed++
		runPartitionCase(t, seed, 64, 1, bits, 2, FreeEndpoints, false, 128, true)
	}
}

// FuzzPartitionEquivalence fuzzes the same contract; CI runs it with a
// short budget on every PR (make fuzz-smoke).
func FuzzPartitionEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(2), uint8(1), uint8(2), false, false, false)
	f.Add(int64(2), uint8(9), uint8(3), uint8(2), uint8(1), true, true, false)
	f.Add(int64(3), uint8(4), uint8(2), uint8(2), uint8(0), false, true, true)
	f.Add(int64(4), uint8(12), uint8(3), uint8(1), uint8(5), true, false, true)
	f.Fuzz(func(t *testing.T, seed int64, stagesRaw, groupsRaw, bitsRaw, kRaw uint8, countAll, withFinal, forceBeam bool) {
		stages := 1 + int(stagesRaw%12)
		nGroups := 2 + int(groupsRaw%2)
		bitsPer := 1 + int(bitsRaw%2)
		k := int(kRaw%6) - 1 // -1 is Unconstrained
		policy := FreeEndpoints
		if countAll {
			policy = CountAll
		}
		runPartitionCase(t, seed, stages, nGroups, bitsPer, k, policy, withFinal, beamWidth, forceBeam)
	})
}

// synchronizedModel builds a problem of len(switchAt) one-bit
// components, each wanting its single design change at its own stage
// switchAt[g]: components that share a switch stage are the shape where
// the shared-stage fast path must prove optimality, components that do
// not must trade the budget. Costs are integers, so sums are exact.
func synchronizedModel(stages int, switchAt []int) (*groupedModel, []Config) {
	g := len(switchAt)
	m := &groupedModel{
		additiveModel: additiveModel{
			exec: make([][]float64, stages),
			add:  make([]float64, g),
			drop: make([]float64, g),
		},
		groups: make([]Config, g),
	}
	for s := 0; s < g; s++ {
		m.add[s], m.drop[s] = 5, 1
		m.groups[s] = ConfigOf(s)
	}
	configs := make([]Config, 1<<uint(g))
	for c := range configs {
		configs[c] = Config(c)
	}
	for i := 0; i < stages; i++ {
		row := make([]float64, len(configs))
		for c := range row {
			v := 0.0
			for s := 0; s < g; s++ {
				has := Config(c).Has(s)
				if i >= switchAt[s] {
					// After the switch point the group's index saves 100/stage.
					if has {
						v += 10
					} else {
						v += 110
					}
				} else {
					// Before it the index is pure overhead.
					if has {
						v += 30
					} else {
						v += 20
					}
				}
			}
			row[c] = v
		}
		m.exec[i] = row
	}
	return m, configs
}

// sharedPhaseProblem is synchronizedModel at lattice width: structs
// one-bit components (2^structs candidates) over 64 stages cut into four
// 16-stage phases, every component switching on one of the three phase
// boundaries, so the full-budget composition makes 3 global changes.
func sharedPhaseProblem(structs, k int) *Problem {
	switchAt := make([]int, structs)
	for s := range switchAt {
		switchAt[s] = 16 * (1 + s%3)
	}
	m, configs := synchronizedModel(64, switchAt)
	return &Problem{Stages: 64, Configs: configs, Initial: 0, K: k, Model: m}
}

// TestPartitionedTightK pins the recombination behaviour under a tight
// shared budget: components wanting the same switch stage compose into
// one global change (gap 0, equal to exact), also when seven or nine of
// them share three stages; components wanting different stages must
// trade budget and stay within the reported gap.
func TestPartitionedTightK(t *testing.T) {
	t.Run("same stage", func(t *testing.T) {
		m, configs := synchronizedModel(8, []int{4, 4})
		p := &Problem{Stages: 8, Configs: configs, Initial: 0, K: 1, Model: m}
		exact, err := SolveKAware(bg, &Problem{Stages: 8, Configs: configs, Initial: 0, K: 1, Model: m})
		if err != nil {
			t.Fatal(err)
		}
		ps, err := SolvePartitioned(bg, p)
		if err != nil {
			t.Fatal(err)
		}
		if got := components(t, p); got != 2 {
			t.Fatalf("expected 2 components, got %d", got)
		}
		if ps.Gap != 0 {
			t.Fatalf("synchronized wants must compose with gap 0, got %v", ps.Gap)
		}
		if ps.Cost != exact.Cost {
			t.Fatalf("cost %v != exact %v", ps.Cost, exact.Cost)
		}
		if ps.Changes != 1 {
			t.Fatalf("changes = %d, want 1 shared change", ps.Changes)
		}
	})
	t.Run("shared phases", func(t *testing.T) {
		// 128 and 512 candidates, k at and above the three shared
		// boundaries: the composition fits, so the solver must factor and
		// claim — not merely reach — the optimum.
		for _, structs := range []int{7, 9} {
			for _, k := range []int{4, 8} {
				p := sharedPhaseProblem(structs, k)
				exactP := *p
				exact, err := SolveKAware(bg, &exactP)
				if err != nil {
					t.Fatal(err)
				}
				ps, err := SolvePartitioned(bg, p)
				if err != nil {
					t.Fatal(err)
				}
				if got := components(t, p); got != structs {
					t.Fatalf("structs=%d k=%d: expected %d components, got %d", structs, k, structs, got)
				}
				if ps.Gap != 0 {
					t.Fatalf("structs=%d k=%d: gap %v, want exactly 0", structs, k, ps.Gap)
				}
				if ps.Cost != exact.Cost {
					t.Fatalf("structs=%d k=%d: cost %v != exact %v", structs, k, ps.Cost, exact.Cost)
				}
				if ps.Changes != 3 {
					t.Fatalf("structs=%d k=%d: changes = %d, want the 3 shared boundaries", structs, k, ps.Changes)
				}
			}
		}
	})
	t.Run("countall forced first changes", func(t *testing.T) {
		// Three two-structure components whose candidates hold exactly
		// one of the two, an empty initial design and CountAll: every
		// component must spend a change at stage 0 and wants its second
		// at a stage of its own. At K = 2 no per-component split exists
		// (three forced changes), the full composition makes four global
		// changes, and the solver must hand over to the exact solve.
		const stages = 8
		switchAt := []int{2, 4, 6}
		m := &groupedModel{
			additiveModel: additiveModel{
				exec: make([][]float64, stages),
				add:  []float64{5, 5, 5, 5, 5, 5},
				drop: []float64{1, 1, 1, 1, 1, 1},
			},
			groups: []Config{ConfigOf(0, 1), ConfigOf(2, 3), ConfigOf(4, 5)},
		}
		for i := range m.exec {
			row := make([]float64, 1<<6)
			for raw := range row {
				for g, at := range switchAt {
					// Projection 1 is the component's first structure, wanted
					// before its switch stage; 2 the second, wanted from it on.
					wanted := 1
					if i >= at {
						wanted = 2
					}
					switch (raw >> uint(2*g)) & 3 {
					case wanted:
						row[raw] += 10
					case 0:
						row[raw] += 60
					default:
						row[raw] += 110
					}
				}
			}
			m.exec[i] = row
		}
		var configs []Config
		for raw := 0; raw < 1<<6; raw++ {
			if c := Config(raw); (c&3).Count() == 1 && (c>>2&3).Count() == 1 && (c>>4&3).Count() == 1 {
				configs = append(configs, c)
			}
		}
		p := &Problem{Stages: stages, Configs: configs, Initial: 0, K: 2, Policy: CountAll, Model: m}
		exactP := *p
		exact, err := SolveKAware(bg, &exactP)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := SolvePartitioned(bg, p)
		if err != nil {
			t.Fatal(err)
		}
		if got := components(t, p); got != 3 {
			t.Fatalf("expected 3 components, got %d", got)
		}
		if ps.Gap != 0 || ps.Cost-ps.Gap != exact.Cost {
			t.Fatalf("gap %v, lower bound %v; want 0 and the optimum %v", ps.Gap, ps.Cost-ps.Gap, exact.Cost)
		}
		if ps.Cost != exact.Cost || !reflect.DeepEqual(ps.Designs, exact.Designs) {
			t.Fatalf("(%v, %v) differs from the exact solve (%v, %v)", ps.Cost, ps.Designs, exact.Cost, exact.Designs)
		}
		if ps.Changes != 2 {
			t.Fatalf("changes = %d, want the installation plus one", ps.Changes)
		}
	})
	t.Run("different stages", func(t *testing.T) {
		m, configs := synchronizedModel(8, []int{2, 6})
		p := &Problem{Stages: 8, Configs: configs, Initial: 0, K: 1, Model: m}
		exact, err := SolveKAware(bg, &Problem{Stages: 8, Configs: configs, Initial: 0, K: 1, Model: m})
		if err != nil {
			t.Fatal(err)
		}
		ps, err := SolvePartitioned(bg, p)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.CheckSolution(ps); err != nil {
			t.Fatal(err)
		}
		const tol = 1e-9
		if ps.Cost < exact.Cost-tol {
			t.Fatalf("cost %v beats optimum %v", ps.Cost, exact.Cost)
		}
		if ps.Cost-ps.Gap > exact.Cost+tol {
			t.Fatalf("bound not admissible: %v − %v > %v", ps.Cost, ps.Gap, exact.Cost)
		}
	})
}

// TestPartitionedSingleComponent pins the degenerate delegation: a
// problem whose interaction graph is one clique must return the exact
// solver's answer byte for byte, with gap 0, as one component.
func TestPartitionedSingleComponent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m, configs := randomGroupedModel(rng, 10, 1, 3)
	m.groups = []Config{ConfigOf(0, 1, 2)} // one clique spanning everything
	p := &Problem{Stages: 10, Configs: configs, Initial: 0, K: 2, Model: m}
	exact, err := SolveKAware(bg, &Problem{Stages: 10, Configs: configs, Initial: 0, K: 2, Model: m})
	if err != nil {
		t.Fatal(err)
	}
	ps, err := SolvePartitioned(bg, p)
	if err != nil {
		t.Fatal(err)
	}
	if got := components(t, p); got != 1 || ps.Gap != 0 {
		t.Fatalf("single-clique problem: %d components, gap %v", got, ps.Gap)
	}
	if ps.Cost != exact.Cost || ps.Changes != exact.Changes {
		t.Fatalf("delegated solve diverges: (%v, %d) vs (%v, %d)",
			ps.Cost, ps.Changes, exact.Cost, exact.Changes)
	}
	for i := range exact.Designs {
		if ps.Designs[i] != exact.Designs[i] {
			t.Fatalf("design %d: %v != %v", i, ps.Designs[i], exact.Designs[i])
		}
	}
}

// TestPartitionConfigsEligibility pins every reason partitioning is
// refused, and the component ordering when it is not.
func TestPartitionConfigsEligibility(t *testing.T) {
	rng := rand.New(rand.NewSource(31))

	t.Run("no interaction model", func(t *testing.T) {
		m, configs := randomAdditiveModel(rng, 4, 4)
		p := &Problem{Stages: 4, Configs: configs, Initial: 0, K: 1, Model: m}
		if partitionConfigs(p, configs) != nil {
			t.Fatal("partitioned a model without ExecInteractions")
		}
	})

	t.Run("no additive trans model", func(t *testing.T) {
		m, configs := randomGroupedModel(rng, 4, 2, 1)
		p := &Problem{Stages: 4, Configs: configs, Initial: 0, K: 1, Model: interactionsOnly{m}}
		if partitionConfigs(p, configs) != nil {
			t.Fatal("partitioned a model without TransParts")
		}
	})

	t.Run("empty span", func(t *testing.T) {
		m, _ := randomGroupedModel(rng, 4, 2, 1)
		configs := []Config{0}
		p := &Problem{Stages: 4, Configs: configs, Initial: 0, K: 1, Model: m}
		if partitionConfigs(p, configs) != nil {
			t.Fatal("partitioned the empty design alone")
		}
	})

	t.Run("trans parts shorter than the span", func(t *testing.T) {
		m, configs := randomGroupedModel(rng, 4, 2, 1)
		m.drop = m.drop[:1]
		p := &Problem{Stages: 4, Configs: configs, Initial: 0, K: 1, Model: m}
		if partitionConfigs(p, configs) != nil {
			t.Fatal("partitioned although TransParts does not reach structure 1")
		}
	})

	t.Run("clique outside the span", func(t *testing.T) {
		m, configs := randomGroupedModel(rng, 4, 2, 1)
		m.groups = append(m.groups, ConfigOf(7, 8))
		p := &Problem{Stages: 4, Configs: configs, Initial: 0, K: 1, Model: m}
		if plan := partitionConfigs(p, configs); plan == nil || len(plan.masks) != 2 {
			t.Fatalf("a clique over structures no candidate uses changed the factoring: %+v", plan)
		}
	})

	t.Run("non-additive trans part", func(t *testing.T) {
		m, configs := randomGroupedModel(rng, 4, 2, 1)
		m.add[0] = -1
		p := &Problem{Stages: 4, Configs: configs, Initial: 0, K: 1, Model: m}
		if partitionConfigs(p, configs) != nil {
			t.Fatal("partitioned despite a negative TransParts entry")
		}
	})

	t.Run("countall initial outside span", func(t *testing.T) {
		m, configs := randomGroupedModel(rng, 4, 2, 1)
		p := &Problem{Stages: 4, Configs: configs, Initial: ConfigOf(5), K: 1, Policy: CountAll, Model: m}
		if partitionConfigs(p, configs) != nil {
			t.Fatal("partitioned a CountAll problem whose initial leaves the span")
		}
		p.Policy = FreeEndpoints
		if partitionConfigs(p, configs) == nil {
			t.Fatal("FreeEndpoints with out-of-span initial must still factor")
		}
	})

	t.Run("single clique", func(t *testing.T) {
		m, configs := randomGroupedModel(rng, 4, 2, 1)
		m.groups = []Config{3}
		p := &Problem{Stages: 4, Configs: configs, Initial: 0, K: 1, Model: m}
		if partitionConfigs(p, configs) != nil {
			t.Fatal("partitioned a single-component clique graph")
		}
	})

	t.Run("non-product candidate list", func(t *testing.T) {
		m, _ := randomGroupedModel(rng, 4, 2, 1)
		// {00, 01, 10} is missing 11: projections {0,1}×{0,1} ≠ list.
		configs := []Config{0, 1, 2}
		p := &Problem{Stages: 4, Configs: configs, Initial: 0, K: 1, Model: m}
		if partitionConfigs(p, configs) != nil {
			t.Fatal("partitioned a non-cross-product candidate list")
		}
	})

	t.Run("projection product outgrows the list", func(t *testing.T) {
		// Four candidates over two two-bit components with four distinct
		// projections each: the product is refused at 4 × 4 without being
		// formed (the guard that keeps it from overflowing).
		m, _ := randomGroupedModel(rng, 4, 2, 2)
		configs := []Config{0b0000, 0b0101, 0b1010, 0b1111}
		p := &Problem{Stages: 4, Configs: configs, Initial: 0, K: 1, Model: m}
		if partitionConfigs(p, configs) != nil {
			t.Fatal("partitioned a diagonal candidate list")
		}
	})

	t.Run("component order and projections", func(t *testing.T) {
		m, configs := randomGroupedModel(rng, 4, 3, 2)
		p := &Problem{Stages: 4, Configs: configs, Initial: 0, K: 1, Model: m}
		plan := partitionConfigs(p, configs)
		if plan == nil {
			t.Fatal("3×2-bit cross product did not factor")
		}
		if len(plan.masks) != 3 {
			t.Fatalf("masks = %v", plan.masks)
		}
		for j, want := range []Config{ConfigOf(0, 1), ConfigOf(2, 3), ConfigOf(4, 5)} {
			if plan.masks[j] != want {
				t.Fatalf("mask %d = %v, want %v", j, plan.masks[j], want)
			}
			if len(plan.subs[j]) != 4 {
				t.Fatalf("component %d has %d projections, want 4", j, len(plan.subs[j]))
			}
		}
	})
}

// TestAutoLadder pins the resilient ladder's strategy selection around
// the lattice ceiling, for every strategy of the table: below it the
// ladder is DefaultLadder's, above it the partitioned solver goes first
// (once). Today's literal wide ladder is pinned at the end.
func TestAutoLadder(t *testing.T) {
	narrow := &Problem{Configs: []Config{0, 1, 2}}
	wide := &Problem{Configs: make([]Config, 0, maxLatticeBits+2)}
	for s := 0; s <= maxLatticeBits+1; s++ {
		wide.Configs = append(wide.Configs, ConfigOf(s))
	}
	for _, primary := range Strategies() {
		base := DefaultLadder(primary)
		if got := AutoLadder(narrow, primary); !reflect.DeepEqual(got, base) {
			t.Errorf("narrow AutoLadder(%s) = %v, want %v", primary, got, base)
		}
		want := base
		if primary != StrategyPartitioned {
			want = append([]Strategy{StrategyPartitioned}, base...)
		}
		if got := AutoLadder(wide, primary); !reflect.DeepEqual(got, want) {
			t.Errorf("wide AutoLadder(%s) = %v, want %v", primary, got, want)
		}
	}
	want := []Strategy{StrategyPartitioned, StrategyKAware, StrategyGreedySeq, StrategyMerge}
	if got := AutoLadder(wide, StrategyKAware); !reflect.DeepEqual(got, want) {
		t.Fatalf("wide ladder = %v, want %v", got, want)
	}
}

// TestLatticeOverflowDiagnostic asserts the silent dense fallback above
// the hypercube ceiling is counted on the Metrics ledger.
func TestLatticeOverflowDiagnostic(t *testing.T) {
	var metrics Metrics
	if got := metrics.LatticeOverflows(); got != 0 {
		t.Fatalf("fresh ledger counts %d overflows", got)
	}
	structs := maxLatticeBits + 2
	m := &additiveModel{
		exec: [][]float64{nil}, // kernel resolution never prices EXEC
		add:  make([]float64, structs),
		drop: make([]float64, structs),
	}
	configs := make([]Config, structs+1)
	for s := 0; s < structs; s++ {
		configs[s+1] = ConfigOf(s)
	}
	p := &Problem{Stages: 1, Configs: configs, Initial: 0, K: 1, Model: m,
		Kernel: KernelHypercube, Metrics: &metrics}
	if got := resolveKernel(p, configs).kind; got != KernelDense {
		t.Fatalf("22-bit span resolved to %v, want dense fallback", got)
	}
	if got := metrics.LatticeOverflows(); got != 1 {
		t.Fatalf("LatticeOverflows = %d, want 1", got)
	}
}

// TestBeamComponentBuildsTablesOnce pins that a beam component prices
// its lower bound on the tables it searches: with no SolveCache, each
// partition.component span of a forced-beam solve encloses exactly one
// matrix.build. Components run one after another, so a component's
// builds are the ones that end after the previous component span.
func TestBeamComponentBuildsTablesOnce(t *testing.T) {
	m, configs := randomGroupedModel(rand.New(rand.NewSource(3)), 12, 2, 2)
	var buf bytes.Buffer
	jw := obs.NewJSONLWriter(&buf)
	p := &Problem{Stages: 12, Configs: configs, Initial: 0, K: 2, Model: m,
		Parallelism: 1, Tracer: obs.NewTracer(jw)}
	if _, err := solvePartitioned(bg, p, 4, true); err != nil {
		t.Fatal(err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	comps, builds := 0, 0
	for _, rec := range recs {
		switch rec.Name {
		case SpanMatrixBuild:
			builds++
		case SpanPartitionComponent:
			comps++
			if builds != 1 {
				t.Errorf("component %d encloses %d %s spans, want 1", comps, builds, SpanMatrixBuild)
			}
			for _, a := range rec.Attrs {
				if a.Key == "exact" && a.Value() != false {
					t.Errorf("component %d: exact = %v on a forced beam", comps, a.Value())
				}
			}
			builds = 0
		}
	}
	if comps != 2 {
		t.Fatalf("%d %s spans, want 2", comps, SpanPartitionComponent)
	}
}

// TestPartitionedCacheWarmStart asserts a re-solve through a shared
// SolveCache reuses every component's tables: the multi-entry cache
// must hold one entry per component sub-lattice.
func TestPartitionedCacheWarmStart(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	m, configs := randomGroupedModel(rng, 10, 3, 2)
	p := &Problem{
		Stages: 10, Configs: configs, Initial: 0, K: 2, Model: m,
		Cache: NewSolveCache(), Metrics: &Metrics{},
	}
	ps1, err := SolvePartitioned(bg, p)
	if err != nil {
		t.Fatal(err)
	}
	builds := p.Metrics.MatrixBuilds()
	if builds == 0 {
		t.Fatal("no table builds recorded")
	}
	ps2, err := SolvePartitioned(bg, p)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Metrics.MatrixBuilds(); got != builds {
		t.Fatalf("re-solve rebuilt tables: %d -> %d builds", builds, got)
	}
	if p.Metrics.MatrixReuses() == 0 {
		t.Fatal("re-solve reused no tables")
	}
	if ps1.Cost != ps2.Cost {
		t.Fatalf("warm re-solve changed the answer: %v != %v", ps1.Cost, ps2.Cost)
	}
}

// TestPartitionedStrategy asserts the strategy registration: solving
// through the generic dispatcher matches SolvePartitioned.
func TestPartitionedStrategy(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	m, configs := randomGroupedModel(rng, 8, 2, 2)
	p := &Problem{Stages: 8, Configs: configs, Initial: 0, K: 2, Model: m}
	viaStrategy, err := Solve(bg, p, StrategyPartitioned)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := SolvePartitioned(bg, p)
	if err != nil {
		t.Fatal(err)
	}
	if viaStrategy.Cost != direct.Cost {
		t.Fatalf("strategy dispatch cost %v != direct %v", viaStrategy.Cost, direct.Cost)
	}
	found := false
	for _, s := range Strategies() {
		if s == StrategyPartitioned {
			found = true
		}
	}
	if !found {
		t.Fatalf("StrategyPartitioned missing from %v", Strategies())
	}
}

// BenchmarkPartitioned times the partitioned solver on lattices wider
// than the dense kernel affords (128 and 512 candidates): exact
// recombination of one-bit components (TestPartitionedTightK's shared
// phases), and the forced width-128 beam over one unfactorable clique
// (TestPartitionedMatchesExact's last rows).
func BenchmarkPartitioned(b *testing.B) {
	for _, structs := range []int{7, 9} {
		factor := sharedPhaseProblem(structs, 4)
		factor.Parallelism = 1
		m, configs := randomGroupedModel(rand.New(rand.NewSource(42)), 64, 1, structs)
		beam := &Problem{Stages: 64, Configs: configs, Initial: 0, K: 2, Model: m, Parallelism: 1}
		for _, bench := range []struct {
			name      string
			p         *Problem
			width     int
			forceBeam bool
		}{
			{"factor", factor, beamWidth, false},
			{"beam", beam, 128, true},
		} {
			b.Run(fmt.Sprintf("%s/structs=%d", bench.name, structs), func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := solvePartitioned(bg, bench.p, bench.width, bench.forceBeam); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
