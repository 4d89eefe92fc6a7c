package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// The exactness harness: one problem generator (exactCase), one list of
// the exact paths (exactPaths), one seeded sweep (TestExactPaths) and one
// fuzz target (FuzzExactPaths) over both. Every generated problem is
// solved once as the reference — the layered DP on a serial, cacheless
// copy, on the dense kernel wherever its all-pairs relaxation is
// affordable (up to 2^22 cell relaxations) — which is held to
// SolveBruteForce wherever brute force fits; every path that applies is
// then held to the reference under its contract, and every solver of
// everySolver() to at least the optimum. A case at Parallelism 2 or 4
// also holds every path that reads it to the same path on one worker,
// bit for bit. DESIGN.md §12 lists the paths; pathEntry, at the end of
// the file, gives each path entry points of its own.

// Cost shapes: float costs make the perturbed optimum unique; small
// integers force exact ties between distinct sequences; integers scaled
// by 1e9 also absorb changeEpsilon (1e9 + 1e-9 == 1e9), so sequences
// with different change counts tie.
const (
	costsFloat = iota
	costsSmallInt
	costsScaledInt
	costShapes
)

// Models of the generator.
const (
	// modelHypercube is an additiveModel on the hypercube kernel (the
	// zero value).
	modelHypercube = iota
	// modelAdditiveDense is an additiveModel forced onto the dense kernel.
	modelAdditiveDense
	// modelTable is a tableModel: arbitrary transition prices, which only
	// the dense kernel can relax.
	modelTable
	// modelGrouped is a groupedModel: EXEC factors over interaction
	// groups, so the partitioned solver splits it; its costs are integers
	// in every shape, and it has no +Inf cells, which would break the
	// factoring.
	modelGrouped
	models
)

// exactCase is one generated problem: a model over a lattice of structs
// bits, its cost shape and share of +Inf EXEC cells, a full or subset
// candidate list, random initial and final designs, and the bound and
// policy. The last fields only steer the harness.
type exactCase struct {
	model, stages, structs, k, shape int
	groups                           int // modelGrouped: interaction groups
	infShare                         float64
	policy                           ChangePolicy
	withFinal, subset                bool

	parallelism int
	// everySolver runs every solver of everySolver() even where brute
	// force does not fit, and fails on any solver's error.
	everySolver bool
	// slide, when set, makes the problem the slid one of a solved problem
	// whose seed pass its solve cache retains (modelHypercube only).
	slide *slideEdit
	// prune prunes the ranking path and forces the partitioned path's
	// beam, of beamWidth when that is set.
	prune     bool
	beamWidth int
	// only, when set, names the paths to run; no heuristic runs then.
	only []string
}

// problem builds the case's problem at the given parallelism.
func (c exactCase) problem(seed int64, parallelism int) *Problem {
	rng := rand.New(rand.NewSource(seed))
	var (
		m       CostModel
		exec    [][]float64
		configs []Config
	)
	scale := 1.0
	if c.shape == costsScaledInt {
		scale = 1e9
	}
	// The draws keep one order: EXEC rows, then prices, then +Inf cells.
	var prices func()
	switch c.model {
	case modelTable:
		tm, cs := randomModel(rng, c.stages, c.structs)
		m, exec, configs = tm, tm.exec, cs
		prices = func() {
			for f, row := range tm.trans {
				for t := range row {
					if t != f {
						row[t] = float64(1+rng.Intn(3)) * scale
					}
				}
			}
		}
	case modelGrouped:
		gm, cs := randomGroupedModel(rng, c.stages, c.groups, c.structs/c.groups)
		for _, v := range append(gm.exec, gm.add, gm.drop) {
			for j := range v {
				v[j] *= scale
			}
		}
		m, configs = gm, cs
	default:
		am, cs := randomAdditiveModel(rng, c.stages, c.structs)
		m, exec, configs = am, am.exec, cs
		prices = func() {
			for s := range am.add {
				am.add[s] = float64(rng.Intn(3)) * scale
				am.drop[s] = float64(rng.Intn(2)) * scale
			}
		}
	}
	if c.shape != costsFloat && prices != nil {
		for _, row := range exec {
			for j := range row {
				row[j] = float64(rng.Intn(4)) * scale
			}
		}
		prices()
	}
	for _, row := range exec {
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
		K: c.k, Policy: c.policy, Model: m, Parallelism: parallelism,
	}
	if c.withFinal {
		f := configs[rng.Intn(len(configs))]
		p.Final = &f
	}
	switch c.model {
	case modelHypercube:
		p.kernel = kernelHypercube
	case modelAdditiveDense:
		p.kernel = kernelDense
	}
	return p
}

// contract is what an exact path owes the reference.
type contract int

const (
	// optimum: the same feasibility, the reference's Cost bits, and its
	// designs when the optimum is unique (exactRun.unique).
	optimum contract = iota
	// gapped: Gap ≥ 0 and Cost − Gap ≤ OPT ≤ Cost; at Gap 0, optimum.
	gapped
)

// exactPath is one exact way to the constrained optimum. Besides its
// contract with the reference, a path may hold its answer to a twin —
// the same answer computed another way — bit for bit: designs, Cost
// bits, Changes and Gap (sameSolution). A serial path's twin at
// Parallelism above 1 is its own answer on one worker. run returns the
// answer to hold to the reference, or nil and no error when the path
// checks only its twin.
type exactPath struct {
	name     string
	contract contract
	serial   bool
	applies  func(x *exactRun) bool
	run      func(t *testing.T, x *exactRun) (*Solution, error)
}

// exactPaths lists the exact paths. The slide runs first: it is the one
// that reads what the case's solve cache retained.
var exactPaths = []exactPath{
	// The retained seed slide; twin: the same problem on a fresh cache,
	// for the exact path and the unconstrained optimum. A slide whose
	// transition prices changed takes a full pass.
	{"slide", optimum, false, func(x *exactRun) bool { return x.c.slide != nil }, slidePath},
	// The exact production path: the seed pass's optimum when it fits K,
	// the layers otherwise.
	{"solveExact", optimum, true, always, func(t *testing.T, x *exactRun) (*Solution, error) {
		sol, attrs, err := solveExact(bg, x.p)
		if x.p.K != Unconstrained && err == nil {
			x.reach.bounded++
			if attrs[1].Value() == false { // the layered attribute
				x.reach.fromSeed++
			}
		}
		return sol, err
	}},
	// The layered DP on the case's kernel, its layers shared by a crew of
	// up to Parallelism workers.
	{"SolveKAware", optimum, true, always, func(t *testing.T, x *exactRun) (*Solution, error) {
		if x.p.Parallelism > 1 && x.p.K >= 1 && len(x.p.Configs) >= parallelSweepMinConfigs {
			x.reach.crews++
		}
		return SolveKAware(bg, x.p)
	}},
	// The seed pass alone, on unbounded cases.
	{"SolveUnconstrained", optimum, true, func(x *exactRun) bool { return x.p.K == Unconstrained },
		func(t *testing.T, x *exactRun) (*Solution, error) { return SolveUnconstrained(bg, x.p) }},
	// The cost-of-constraint curve: its point at K is the answer;
	// non-increasing in k; SweepK(K) and SweepK(Unconstrained) agree on
	// their common points, flat past l, which ends at SolveUnconstrained's
	// optimum. At Parallelism above 1 the whole curve is one worker's, bit
	// for bit.
	{"SweepK", optimum, false, always, sweepPath},
	// Path ranking, pruned or not, where it cannot exhaust its budget.
	{"ranking", optimum, true, (*exactRun).small, func(t *testing.T, x *exactRun) (*Solution, error) {
		res, err := SolveRanking(bg, x.p, RankingOptions{Prune: x.c.prune})
		if err != nil {
			return nil, err
		}
		if res.Exhausted {
			t.Fatalf("ranking exhausted its budget after %d expansions", res.Expansions)
		}
		if res.Solution == nil {
			return nil, errors.New("ranking found no feasible path")
		}
		return res.Solution, nil
	}},
	// The partitioned solver, exact or a forced beam; a full cross
	// product factors into its groups.
	{"partitioned", gapped, false, func(x *exactRun) bool { return x.c.model == modelGrouped }, partitionedPath},
	// The seed pass split between two workers; twin: the one-worker
	// schedule's lattices, parent rows and costs, bit for bit.
	{"split forward pass", optimum, false, func(x *exactRun) bool { return x.c.model == modelHypercube }, splitPath},
}

func always(*exactRun) bool { return true }

// exactReach counts the branches a run of cases reached.
type exactReach struct {
	bounded, fromSeed  int // feasible k-bounded solveExact answers, and those from the seed pass
	crews              int // SolveKAware runs whose layers a crew may share: Parallelism > 1, ≥ 2 layers, enough configurations
	split              int // split forward passes
	reused, fullPasses int // slides that reused stages, and that took a full pass
	factored, pruned   int // partitioned solves over ≥ 2 components, and beams narrower than their states
	brute              [2]int
}

// exactRun is one case under test: p as generated, with its Parallelism
// and solve cache, and the reference answer.
type exactRun struct {
	c       exactCase
	p       *Problem
	base    *Problem // the solved problem p slid from
	want    *Solution
	wantErr error
	reach   *exactReach
}

// serial is p at bound k on one worker, without a cache or metrics.
func (x *exactRun) serial(k int) *Problem {
	q := *x.p
	q.K, q.Parallelism, q.Cache, q.Metrics = k, 1, nil, nil
	return &q
}

// unique reports whether the optimum is unique: float costs.
func (x *exactRun) unique() bool { return x.c.shape == costsFloat && x.c.model != modelGrouped }

// small reports whether brute force fits: at most 4096 sequences.
func (x *exactRun) small() bool {
	return math.Pow(float64(len(x.p.Configs)), float64(x.p.Stages)) <= 4096
}

// runExactCase generates one case and holds every path that applies,
// and every solver, to the reference.
func runExactCase(t *testing.T, seed int64, c exactCase, reach *exactReach) {
	t.Helper()
	x := &exactRun{c: c, p: c.problem(seed, max(1, c.parallelism)), reach: reach}
	if c.slide != nil {
		x.base = x.p
		x.base.Cache = primed()
		_, _ = SolveUnconstrained(bg, x.base) // an infeasible base retains nothing, and the slide takes a full pass
		x.p = c.slide.apply(rand.New(rand.NewSource(seed^0x51de)), x.base, c.shape)
		x.p.Metrics = &Metrics{}
	}
	// The reference: the layered DP at K, or at the most changes a
	// sequence can make when K is unconstrained.
	ref := x.serial(x.p.K)
	if ref.K == Unconstrained {
		ref.K = ref.maxChanges()
	}
	if n := len(ref.Configs); n*n*ref.Stages*(ref.K+1) <= 1<<22 {
		ref.kernel = kernelDense // the all-pairs relaxation, where it is affordable
	}
	x.want, x.wantErr = SolveKAware(bg, ref)
	if x.small() {
		bf, err := SolveBruteForce(ref)
		if (err == nil) != answered(x.want, x.wantErr) {
			t.Fatalf("feasibility: brute force err %v, reference err %v", err, x.wantErr)
		}
		if err == nil && !x.sameCost(bf.Cost, x.want.Cost) {
			t.Fatalf("reference cost %v != brute force %v", x.want.Cost, bf.Cost)
		}
		reach.brute[x.p.Policy]++
	}
	for _, path := range exactPaths {
		if !path.applies(x) || c.only != nil && !slices.Contains(c.only, path.name) {
			continue
		}
		got, err := path.run(t, x)
		if path.serial && x.p.Parallelism > 1 {
			one := &exactRun{c: x.c, p: x.serial(x.p.K), reach: &exactReach{}}
			want, errW := path.run(t, one)
			sameSolution(t, fmt.Sprintf("%s at Parallelism %d", path.name, x.p.Parallelism), want, got, errW, err)
		}
		if got == nil && err == nil {
			continue
		}
		if answered(got, err) != answered(x.want, x.wantErr) {
			t.Fatalf("%s: feasibility disagrees: err %v, reference err %v", path.name, err, x.wantErr)
		}
		if !answered(got, err) {
			continue
		}
		x.valid(t, path.name, got)
		if path.contract == gapped && got.Gap != 0 {
			const tol = 1e-6
			if got.Gap < 0 || got.Cost < x.want.Cost-tol || got.Cost-got.Gap > x.want.Cost+tol {
				t.Fatalf("%s: cost %v, gap %v do not bracket the optimum %v", path.name, got.Cost, got.Gap, x.want.Cost)
			}
			continue
		}
		if math.Float64bits(got.Cost) != math.Float64bits(x.want.Cost) {
			t.Fatalf("%s: cost %v != reference %v", path.name, got.Cost, x.want.Cost)
		}
		if x.unique() && !slices.Equal(got.Designs, x.want.Designs) {
			t.Fatalf("%s: designs differ from the reference's unique optimum", path.name)
		}
	}
	if !x.small() && !c.everySolver || c.only != nil {
		return
	}
	for _, s := range everySolver() {
		if c.everySolver && x.p.K == 0 && (s.name == "ranking" || s.name == "rankmerge") {
			continue // unpruned ranking at K 0 on a long sequence may exhaust its budget
		}
		got, err := s.run(bg, x.p)
		if c.everySolver && err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if !answered(got, err) {
			// Heuristics may stall where +Inf cells leave no finite merge.
			if answered(x.want, x.wantErr) && x.c.infShare == 0 && !errors.Is(err, ErrRankingBudget) {
				t.Fatalf("%s: %v on a feasible problem", s.name, err)
			}
			continue
		}
		if !answered(x.want, x.wantErr) {
			t.Fatalf("%s: cost %v where the reference found no design", s.name, got.Cost)
		}
		x.valid(t, s.name, got)
		if got.Cost < x.want.Cost && !x.sameCost(got.Cost, x.want.Cost) {
			t.Fatalf("%s: cost %v beats the optimum %v", s.name, got.Cost, x.want.Cost)
		}
	}
}

// answered reports whether a solver found a design of finite cost.
// Where none exists the layered DP and brute force fail, while ranking
// may return a sequence of cost +Inf.
func answered(s *Solution, err error) bool { return err == nil && !math.IsInf(s.Cost, 1) }

// sameCost compares a DP's optimum with brute force's: bit for bit on
// integer costs, whose sums are exact; on float costs the DP's change
// epsilon and summation order may move it by rounding.
func (x *exactRun) sameCost(a, b float64) bool {
	if x.c.shape != costsFloat || x.c.model == modelGrouped {
		return math.Float64bits(a) == math.Float64bits(b)
	}
	return almostEqual(a, b)
}

// valid fails unless a solution is feasible for p (CheckSolution) and
// its split is exact: ExecCost + TransCost ≡ Cost, each the model's own
// sum over the designs.
func (x *exactRun) valid(t *testing.T, what string, s *Solution) {
	t.Helper()
	if err := x.p.CheckSolution(s); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	exec, trans := x.serial(x.p.K).SequenceCostSplit(s.Designs)
	if s.ExecCost+s.TransCost != s.Cost || s.ExecCost != exec || s.TransCost != trans {
		t.Fatalf("%s: split (%v, %v) of cost %v, model sums (%v, %v)", what, s.ExecCost, s.TransCost, s.Cost, exec, trans)
	}
}

// sameSolution fails unless two solver outcomes agree bit for bit:
// both errors or neither, identical designs, Cost bits, Changes and Gap.
func sameSolution(t *testing.T, what string, a, b *Solution, errA, errB error) {
	t.Helper()
	if (errA == nil) != (errB == nil) {
		t.Fatalf("%s: errors disagree: %v vs %v", what, errA, errB)
	}
	if errA != nil {
		return
	}
	if math.Float64bits(a.Cost) != math.Float64bits(b.Cost) || a.Changes != b.Changes || a.Gap != b.Gap {
		t.Fatalf("%s: (cost %v, %d changes, gap %v) != (%v, %d, %v)", what, a.Cost, a.Changes, a.Gap, b.Cost, b.Changes, b.Gap)
	}
	if !slices.Equal(a.Designs, b.Designs) {
		t.Fatalf("%s: designs differ", what)
	}
}

func slidePath(t *testing.T, x *exactRun) (*Solution, error) {
	gotU, errG := SolveUnconstrained(bg, x.p)
	led := x.p.Metrics.Snapshot()
	wantU, errW := SolveUnconstrained(bg, fresh(x.p))
	sameSolution(t, "slide: unconstrained optimum", wantU, gotU, errW, errG)
	got, _, errG := solveExact(bg, x.p)
	want, _, errW := solveExact(bg, fresh(x.p))
	sameSolution(t, "slide: exact path", want, got, errW, errG)
	if led.SeedStagesReused > 0 {
		x.reach.reused++
		base, slid := x.base.Model.(*additiveModel), x.p.Model.(*additiveModel)
		for _, s := range spanOf(x.p.Configs).Structures() {
			if base.add[s] != slid.add[s] || base.drop[s] != slid.drop[s] {
				t.Fatalf("slide reused %d stages across a changed price", led.SeedStagesReused)
			}
		}
	}
	if led.SeedFullPasses > 0 {
		x.reach.fullPasses++
	}
	return got, errG
}

func sweepPath(t *testing.T, x *exactRun) (*Solution, error) {
	full, err := SweepK(bg, x.p, Unconstrained)
	if err != nil {
		return nil, err
	}
	l := len(full) - 1
	for i, pt := range full {
		if pt.K != i || !pt.Feasible && (pt.Cost != 0 || pt.Designs != nil) {
			t.Fatalf("SweepK point %d: %+v", i, pt)
		}
		if pt.Feasible && (pt.ExecCost+pt.TransCost != pt.Cost || pt.Changes > i) {
			t.Fatalf("SweepK point %d: split (%v, %v) of cost %v, %d changes", i, pt.ExecCost, pt.TransCost, pt.Cost, pt.Changes)
		}
		if i > 0 && full[i-1].Feasible && (!pt.Feasible || pt.Cost > full[i-1].Cost) {
			t.Fatalf("SweepK rises at k=%d: %v after %v", i, pt.Cost, full[i-1].Cost)
		}
	}
	if x.p.Parallelism > 1 {
		one, err := SweepK(bg, x.serial(x.p.K), Unconstrained)
		if err != nil || !reflect.DeepEqual(one, full) {
			t.Fatalf("SweepK at Parallelism %d: %+v, one worker %+v, %v", x.p.Parallelism, full, one, err)
		}
	}
	unc, err := SolveUnconstrained(bg, x.p)
	if err != nil || math.Float64bits(unc.Cost) != math.Float64bits(full[l].Cost) ||
		x.unique() && !slices.Equal(unc.Designs, full[l].Designs) {
		t.Fatalf("SweepK(Unconstrained) ends at %+v, SolveUnconstrained gives %+v, %v", full[l], unc, err)
	}
	k := x.p.K
	if k == Unconstrained {
		k = l
	} else {
		bounded, err := SweepK(bg, x.p, k)
		if err != nil || len(bounded) != k+1 {
			t.Fatalf("SweepK(%d): %d points, %v", k, len(bounded), err)
		}
		for i, pt := range bounded {
			if i <= l && !reflect.DeepEqual(pt, full[i]) {
				t.Fatalf("SweepK(%d) point %d: %+v, SweepK(Unconstrained) %+v", k, i, pt, full[i])
			}
			if i > l && math.Float64bits(pt.Cost) != math.Float64bits(full[l].Cost) {
				t.Fatalf("SweepK(%d) point %d: cost %v past l=%d, want %v", k, i, pt.Cost, l, full[l].Cost)
			}
		}
	}
	pt := full[min(k, l)]
	if !pt.Feasible {
		return nil, errors.New("SweepK: infeasible at K")
	}
	return &Solution{Designs: pt.Designs, Cost: pt.Cost, ExecCost: pt.ExecCost, TransCost: pt.TransCost, Changes: pt.Changes}, nil
}

func partitionedPath(t *testing.T, x *exactRun) (*Solution, error) {
	width := beamWidth
	if x.c.beamWidth > 0 {
		width = x.c.beamWidth
	}
	if x.c.prune && width < len(x.p.Configs)*(max(x.p.K, 0)+1) { // (configuration, layer) states
		x.reach.pruned++
	}
	n := components(t, x.p)
	if n >= 2 {
		x.reach.factored++
	}
	if !x.c.subset && x.c.groups >= 2 && n != x.c.groups {
		t.Fatalf("a cross product of %d groups split into %d components", x.c.groups, n)
	}
	return solvePartitioned(bg, x.p, width, x.c.prune)
}

func splitPath(t *testing.T, x *exactRun) (*Solution, error) {
	x.reach.split++
	one := runForwardLogged(t, x.serial(x.p.K), false)
	two := runForwardLogged(t, x.serial(x.p.K), true)
	if !bitsEqual(one.cost, two.cost) {
		t.Fatal("split forward pass: final costs differ from one worker's")
	}
	for i := 1; i < x.p.Stages; i++ {
		if !bitsEqual(one.sweeps.val[i], two.sweeps.val[i]) || !slices.Equal(one.sweeps.org[i], two.sweeps.org[i]) {
			t.Fatalf("split forward pass: stage %d lattice differs from one worker's", i)
		}
		if !slices.Equal(one.parents[i], two.parents[i]) {
			t.Fatalf("split forward pass: stage %d parents differ from one worker's", i)
		}
	}
	return nil, nil
}

// decodeCase maps seven bytes onto the generator's dimensions: the
// model, the lattice width (and the grouped model's groups), stages, K
// from Unconstrained to 4 (and, with the parallel flag, Parallelism 2 or
// 4), the cost shape, flags for the final design, a subset list,
// pruning, Parallelism above 1, CountAll, +Inf cells and a slide, and
// the slide's edit.
func decodeCase(model, width, stages, k, shape, flags, edit uint8) exactCase {
	c := exactCase{
		model: int(model % models), k: int(k%6) - 1, shape: int(shape % costShapes),
		withFinal: flags&1 != 0, subset: flags&2 != 0, prune: flags&4 != 0, parallelism: 1,
	}
	if flags&8 != 0 {
		c.parallelism = 2 << (k / 6 & 1)
	}
	if flags&16 != 0 {
		c.policy = CountAll
	}
	switch c.model {
	case modelHypercube:
		c.structs = 1 + int(width%12)
	case modelAdditiveDense:
		c.structs = 1 + int(width%6)
	case modelTable:
		c.structs = 1 + int(width%4)
	case modelGrouped:
		c.groups = 1 + int(width%3)
		c.structs = c.groups * (1 + int(width/3%3))
	}
	if flags&32 != 0 && c.model != modelGrouped {
		c.infShare = 0.15
	}
	c.stages = 1 + int(stages)%max(2, 48>>(c.structs/2))
	if c.model == modelHypercube && flags&64 != 0 {
		c.structs = min(c.structs, 9)
		c.stages = 2 + int(stages)%24
		c.slide = &slideEdit{
			head: int(edit&7) % c.stages, tail: int(edit >> 3 & 3),
			flipC0: edit&32 != 0, flipFinal: edit&64 != 0, flipExec: edit&128 != 0, flipPrice: flags&128 != 0,
		}
	}
	return c
}

// TestExactPaths is the seeded sweep: random cases from decodeCase, and
// pinned ones where a branch is rare — forced beams of 128 over one
// unfactorable 7- and 9-bit clique at 64 stages, where the beam prunes,
// and one-stage slides of a 40-stage small-integer window, which reuse
// stages unless a price changed. It checks that the sweep reaches every
// branch the paths have.
func TestExactPaths(t *testing.T) {
	t.Parallel() // with the path entry tests: none shares state
	var reach exactReach
	rng := rand.New(rand.NewSource(1))
	b := func() uint8 { return uint8(rng.Intn(256)) }
	for i := 0; i < 400; i++ {
		runExactCase(t, int64(i), decodeCase(b(), b(), b(), b(), b(), b(), b()), &reach)
	}
	for _, bits := range []int{7, 9} {
		runExactCase(t, int64(bits), exactCase{model: modelGrouped, stages: 64, structs: bits, groups: 1, k: 2,
			shape: costsSmallInt, prune: true, beamWidth: 128}, &reach)
	}
	for _, flipPrice := range []bool{false, true} {
		runExactCase(t, 7, exactCase{stages: 40, structs: 6, k: 2, shape: costsSmallInt,
			slide: &slideEdit{head: 1, tail: 1, flipPrice: flipPrice}}, &reach)
	}
	t.Logf("%+v", reach)
	if reach.fromSeed < reach.bounded/10 || reach.fromSeed > reach.bounded*9/10 {
		t.Errorf("%d of %d k-bounded answers came from the seed pass; want 10–90 %%", reach.fromSeed, reach.bounded)
	}
	if reach.split == 0 || reach.crews == 0 || reach.reused == 0 || reach.fullPasses == 0 || reach.factored == 0 || reach.pruned < 2 ||
		reach.brute[FreeEndpoints] == 0 || reach.brute[CountAll] == 0 {
		t.Errorf("the sweep missed a branch: %+v", reach)
	}
}

// FuzzExactPaths fuzzes the harness over decodeCase (make fuzz-smoke).
func FuzzExactPaths(f *testing.F) {
	f.Add(int64(1), uint8(modelHypercube), uint8(2), uint8(5), uint8(3), uint8(costsSmallInt), uint8(0), uint8(0))
	f.Add(int64(2), uint8(modelAdditiveDense), uint8(3), uint8(8), uint8(5), uint8(costsScaledInt), uint8(1|2|16), uint8(0))
	f.Add(int64(3), uint8(modelHypercube), uint8(8), uint8(2), uint8(2), uint8(costsFloat), uint8(8|32), uint8(0))
	f.Add(int64(4), uint8(modelGrouped), uint8(4), uint8(9), uint8(2), uint8(costsSmallInt), uint8(4|16), uint8(0))
	f.Add(int64(5), uint8(modelGrouped), uint8(2), uint8(11), uint8(0), uint8(costsScaledInt), uint8(1), uint8(0))
	f.Add(int64(6), uint8(modelHypercube), uint8(5), uint8(28), uint8(3), uint8(costsSmallInt), uint8(64), uint8(1|8))
	f.Add(int64(7), uint8(modelHypercube), uint8(7), uint8(18), uint8(4), uint8(costsSmallInt), uint8(8|64|128), uint8(2|32))
	f.Add(int64(8), uint8(modelTable), uint8(1), uint8(6), uint8(4), uint8(costsFloat), uint8(4|16|32), uint8(0))
	f.Add(int64(9), uint8(modelHypercube), uint8(6), uint8(4), uint8(9), uint8(costsSmallInt), uint8(8), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, model, width, stages, k, shape, flags, edit uint8) {
		runExactCase(t, seed, decodeCase(model, width, stages, k, shape, flags, edit), &exactReach{})
	})
}

// pathEntry is a path's own entry points: a seeded sweep and a fuzz
// target of the harness limited to the path's rows (only), on cases
// whose decodeCase bytes pin fixes to the dimension the path needs.
type pathEntry struct {
	pin  func(b *[7]uint8)
	only []string
}

func (e pathEntry) run(t *testing.T, seed int64, b [7]uint8, reach *exactReach) {
	e.pin(&b)
	c := decodeCase(b[0], b[1], b[2], b[3], b[4], b[5], b[6])
	c.only = e.only
	runExactCase(t, seed, c, reach)
}

// sweep runs n cases whose bytes a seeded source draws (in parallel with
// TestExactPaths and the other entry tests) and returns their reach.
func (e pathEntry) sweep(t *testing.T, n int) (reach exactReach) {
	t.Parallel()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < n; i++ {
		var b [7]uint8
		for j := range b {
			b[j] = uint8(rng.Intn(256))
		}
		e.run(t, int64(i), b, &reach)
	}
	return reach
}

// fuzz seeds the target with n cases drawn from another source.
func (e pathEntry) fuzz(f *testing.F, n int) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < n; i++ {
		var b [7]uint8
		for j := range b {
			b[j] = uint8(rng.Intn(256))
		}
		f.Add(int64(i), b[0], b[1], b[2], b[3], b[4], b[5], b[6])
	}
	f.Fuzz(func(t *testing.T, seed int64, model, width, stages, k, shape, flags, edit uint8) {
		e.run(t, seed, [7]uint8{model, width, stages, k, shape, flags, edit}, &exactReach{})
	})
}

var (
	// The seed-fits-k return: the exact path at K 0–2 on additive models.
	fitsKEntry = pathEntry{func(b *[7]uint8) { b[0], b[3] = b[0]%2, 1+b[3]%3 }, []string{"solveExact"}}
	// The hypercube kernel, up to 8 bits and so always against the dense
	// reference.
	kernelEntry = pathEntry{func(b *[7]uint8) { b[0], b[1], b[5] = modelHypercube, b[1]%8, b[5]&^64 },
		[]string{"SolveKAware", "SolveUnconstrained", "SweepK", "ranking"}}
	// The split seed pass, and every optimum path at Parallelism 2 or 4
	// against one worker.
	splitEntry = pathEntry{func(b *[7]uint8) { b[0], b[5] = modelHypercube, b[5]&^64|8 },
		[]string{"split forward pass", "solveExact", "SolveKAware", "SolveUnconstrained", "SweepK"}}
	// The partitioned solver on grouped models of 2–3 groups at K 0–2,
	// where the recombination splits the budget.
	partitionEntry = pathEntry{func(b *[7]uint8) { b[0], b[1], b[3] = modelGrouped, 1+b[1]%2+3*(b[1]/2%3), 1+b[3]%3 }, []string{"partitioned"}}
	// The retained seed slide.
	slideEntry = pathEntry{func(b *[7]uint8) { b[0], b[5] = modelHypercube, b[5]|64 }, []string{"slide"}}
)

// tinyTable pins a tableModel case of 1–2 bits and 1–6 stages: at most
// 4096 sequences, so brute force always fits.
func tinyTable(b *[7]uint8) { b[0], b[1], b[2] = modelTable, b[1]%2, b[2]%6 }

func TestExactFitsKMatchesKAware(t *testing.T) {
	if r := fitsKEntry.sweep(t, 30); r.fromSeed == 0 || r.fromSeed == r.bounded {
		t.Errorf("%d of %d k-bounded answers came from the seed pass; want both branches", r.fromSeed, r.bounded)
	}
}

func FuzzExactFitsK(f *testing.F) { fitsKEntry.fuzz(f, 5) }

func TestKernelEquivalence(t *testing.T) { kernelEntry.sweep(t, 40) }

func FuzzKernelEquivalence(f *testing.F) { kernelEntry.fuzz(f, 4) }

func TestLatticeSplitMatchesOneWorker(t *testing.T) {
	if r := splitEntry.sweep(t, 20); r.split != 20 {
		t.Errorf("%d of 20 cases split their seed pass", r.split)
	}
}

func FuzzLatticeSplit(f *testing.F) { splitEntry.fuzz(f, 4) }

func TestPartitionedMatchesExact(t *testing.T) {
	if r := partitionEntry.sweep(t, 40); r.factored == 0 {
		t.Error("no grouped problem factored into two or more components")
	}
}

func FuzzPartitionEquivalence(f *testing.F) { partitionEntry.fuzz(f, 4) }

// TestSlideReusesRetainedStages: a one-stage slide of a 40-stage window
// reuses the retained stages, and takes a full pass once a price changed.
func TestSlideReusesRetainedStages(t *testing.T) {
	for _, flipPrice := range []bool{false, true} {
		var r exactReach
		runExactCase(t, 7, exactCase{stages: 40, structs: 6, k: 2, shape: costsSmallInt,
			slide: &slideEdit{head: 1, tail: 1, flipPrice: flipPrice}, only: []string{"slide"}}, &r)
		if (r.reused > 0) == flipPrice || (r.fullPasses > 0) != flipPrice {
			t.Errorf("price changed %v: %d slides reused stages, %d took a full pass", flipPrice, r.reused, r.fullPasses)
		}
	}
}

func FuzzIncrementalSeed(f *testing.F) { slideEntry.fuzz(f, 6) }

func TestUnconstrainedMatchesBruteForce(t *testing.T) {
	e := pathEntry{func(b *[7]uint8) { tinyTable(b); b[3] = 0 }, []string{"SolveUnconstrained"}}
	if r := e.sweep(t, 30); r.brute[FreeEndpoints]+r.brute[CountAll] != 30 {
		t.Errorf("brute force checked %v of 30 cases", r.brute)
	}
}

func TestKAwareMatchesBruteForce(t *testing.T) {
	e := pathEntry{func(b *[7]uint8) { tinyTable(b); b[3] = 1 + b[3]%5 }, []string{"SolveKAware"}}
	if r := e.sweep(t, 60); r.brute[FreeEndpoints] == 0 || r.brute[CountAll] == 0 || r.brute[0]+r.brute[1] != 60 {
		t.Errorf("brute force checked %v of 60 cases; want both policies", r.brute)
	}
}

func TestCostMonotonicInK(t *testing.T) {
	pathEntry{func(b *[7]uint8) { b[0] %= modelGrouped }, []string{"SweepK"}}.sweep(t, 40)
}

// TestSolutionCostSplit runs every path and every solver on a 12-stage,
// 3-bit table model too long for brute force, at K 0, 2 and
// Unconstrained: every solver answers, and each answer's ExecCost +
// TransCost is its Cost, each the model's own sum.
func TestSolutionCostSplit(t *testing.T) {
	t.Parallel()
	for _, k := range []int{0, 2, Unconstrained} {
		runExactCase(t, 7, exactCase{model: modelTable, stages: 12, structs: 3, k: k, withFinal: true, everySolver: true}, &exactReach{})
	}
}
