package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"dyndesign/internal/obs"
)

// ErrLatticeTooLarge tags the diagnostic raised when a solve's candidate
// span exceeds the 20-bit hypercube ceiling (maxLatticeBits): the exact
// graph solvers silently fall back to the dense O(n·c²) all-pairs scan,
// which is why a wide solve suddenly got slow. The Metrics ledger counts
// these fallbacks (LatticeOverflows) and the advisor surfaces them on
// the Recommendation; SolvePartitioned is the remedy when the model can
// report structure interactions.
var ErrLatticeTooLarge = errors.New("core: candidate span exceeds the 20-bit hypercube lattice ceiling; exact solvers fall back to the dense O(n·c²) scan")

// LatticeOverflowDiagnostic converts the ledger's lattice-overflow count
// into a typed error: non-nil (wrapping ErrLatticeTooLarge) when at
// least one solve's span exceeded the hypercube ceiling and ran on the
// dense fallback instead.
func (m *Metrics) LatticeOverflowDiagnostic() error {
	if n := m.LatticeOverflows(); n > 0 {
		return fmt.Errorf("%w (%d table builds above the ceiling)", ErrLatticeTooLarge, n)
	}
	return nil
}

// InteractionModel is an optional CostModel capability for models that
// know which candidate structures jointly affect a statement's EXEC
// cost. ExecInteractions returns one Config per interaction clique —
// typically the set of candidate structures relevant to one workload
// statement; structures never sharing a clique must not interact:
//
//	EXEC(i, c) = EXEC(i, ∅) + Σ_j [ EXEC(i, c ∩ M_j) − EXEC(i, ∅) ]
//
// for every stage i, where M_1..M_p are the connected components of the
// clique graph. The advisor's what-if model has exactly this shape (a
// statement's cost depends only on the indexes usable by that
// statement). SolvePartitioned trusts the decomposition the way the
// kernels trust TransParts: reported sequence costs are always
// recomputed through the full model, but the optimality-gap claim
// relies on the interactions being complete.
type InteractionModel interface {
	CostModel
	// ExecInteractions returns the interaction cliques. Called at most
	// once per solve, so it may allocate.
	ExecInteractions() []Config
}

// Partitioned-solver constants.
const (
	// beamWidth is the width of the anytime beam search used for
	// components too wide to solve exactly.
	beamWidth = 512
	// maxExactConfigs is the largest candidate list — a component's, or
	// an unfactorable problem's — still handed to the exact layered DP
	// when its span exceeds the hypercube ceiling (the dense kernel's
	// O(n·c²) stays affordable up to roughly this many configurations).
	maxExactConfigs = 4096
)

// exactAffordable reports whether a candidate list is solved exactly:
// its span fits the hypercube lattice, or the list is short enough for
// the dense kernel.
func exactAffordable(configs []Config) bool {
	return spanOf(configs).Count() <= maxLatticeBits || len(configs) <= maxExactConfigs
}

// ComponentReport describes one independent component of a partitioned
// solve.
type ComponentReport struct {
	// Mask is the component's structure bits.
	Mask Config
	// Bits is Mask.Count(); Configs the size of the component's
	// projected candidate list.
	Bits, Configs int
	// Exact is true when the component was solved exactly (its share of
	// the gap is zero); false for the beam path.
	Exact bool
	// Budget is the per-step change budget the recombination granted the
	// component.
	Budget int
	// Cost is the component's epsilon-free objective share; LowerBound
	// its admissible bound (equal to Cost for exact components up to
	// tie-breaking).
	Cost, LowerBound float64
}

// PartitionedSolution is a design sequence with an anytime optimality
// certificate.
type PartitionedSolution struct {
	*Solution
	// LowerBound is an admissible lower bound on the constrained
	// optimum (trusting the model's InteractionModel/AdditiveTransModel
	// decompositions); Gap = max(0, Cost − LowerBound). Gap is 0 when
	// every component factored and solved exactly.
	LowerBound float64
	Gap        float64
	// Components is the number of independent sub-lattices solved (1
	// when the problem did not factor). Factored reports whether the
	// interaction graph actually split the problem.
	Components int
	Factored   bool
	// Reports has one entry per component, ordered by lowest structure
	// bit.
	Reports []ComponentReport
}

// SolvePartitioned solves the constrained design problem by factoring
// the candidate lattice into independent sub-lattices: structures whose
// transition costs are per-structure additive (TransParts) and that
// never co-affect any statement's EXEC cost (ExecInteractions) are
// independent, so each connected component of the interaction graph is
// solved on its own — exactly with the hypercube/dense kernels when
// small enough, with a beam-pruned anytime search otherwise — and the
// per-component sequences are recombined under the shared k-per-step
// constraint by a small budget knapsack plus a synchronization repair
// pass (simultaneous component moves at one stage count as a single
// global change). The result always carries a reported optimality gap:
// exactly 0 when everything factored and solved exactly, Cost − LB
// otherwise.
//
// Problems that do not factor (no InteractionModel, non-product
// candidate list, a single connected component) are delegated to the
// exact solver when affordable and to the anytime beam over the whole
// candidate list when not, so SolvePartitioned is safe to call on any
// valid problem.
func SolvePartitioned(ctx context.Context, p *Problem) (*PartitionedSolution, error) {
	return solvePartitioned(ctx, p, beamWidth, false)
}

// solvePartitioned is SolvePartitioned with the beam's width given and,
// under forceBeam, the beam taken even where an exact solve is
// affordable. Production has one value of each; the package's tests
// force the beam — at a width that really prunes — on problems small
// enough to check against the exact solver.
func solvePartitioned(ctx context.Context, p *Problem, width int, forceBeam bool) (*PartitionedSolution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.K > p.maxChanges() {
		// No sequence has more changes than that, so a larger bound buys
		// nothing — and the budget curves and knapsack rows below are
		// K+1 wide.
		clamped := *p
		clamped.K = p.maxChanges()
		p = &clamped
	}
	configs, err := p.usableConfigs()
	if err != nil {
		return nil, err
	}
	sp := p.Tracer.Start(SpanPartitionCluster)
	plan := partitionConfigs(p, configs)
	nComp := 1
	if plan != nil {
		nComp = len(plan.masks)
	}
	sp.End(obs.Int("components", int64(nComp)), obs.Bool("factored", plan != nil),
		obs.Int("configs", int64(len(configs))))
	if plan == nil {
		return solveUnfactored(ctx, p, configs, width, forceBeam)
	}
	return solveFactored(ctx, p, configs, plan, width, forceBeam)
}

// partitionPlan is a discovered factoring of the candidate list.
type partitionPlan struct {
	masks []Config   // disjoint component masks, ordered by lowest bit
	subs  [][]Config // per-component projected candidates, first-appearance order
}

// partitionConfigs discovers the independent components of the problem,
// or returns nil when it does not factor: the model must expose both
// interaction cliques and valid additive transition parts over the
// span, the clique graph must split into at least two components, and
// the candidate list must be exactly the cross product of its
// per-component projections (so recombined designs are guaranteed to be
// candidates). CountAll problems whose initial configuration holds
// structures outside the span are refused: dropping those structures
// forces a global first-stage change no per-component budget accounts
// for.
func partitionConfigs(p *Problem, configs []Config) *partitionPlan {
	im, ok := capability[InteractionModel](p.Model)
	if !ok {
		return nil
	}
	am, ok := capability[AdditiveTransModel](p.Model)
	if !ok {
		return nil
	}
	span := spanOf(configs)
	if span == 0 {
		return nil
	}
	if p.Policy == CountAll && p.Initial&^span != 0 {
		return nil
	}
	if add, drop := am.TransParts(); !validTransParts(add, drop, span) {
		return nil
	}

	// Union-find over the span's structure bits, joined by the cliques.
	var parent [MaxStructures]int
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	for _, clique := range im.ExecInteractions() {
		clique &= span
		if clique == 0 {
			continue
		}
		first := bits.TrailingZeros64(uint64(clique))
		for c := clique; c != 0; c &= c - 1 {
			union(first, bits.TrailingZeros64(uint64(c)))
		}
	}
	rootMask := make(map[int]Config)
	order := make([]int, 0, 4)
	for s := span; s != 0; s &= s - 1 {
		bit := bits.TrailingZeros64(uint64(s))
		r := find(bit)
		if _, seen := rootMask[r]; !seen {
			order = append(order, r)
		}
		rootMask[r] |= 1 << uint(bit)
	}
	if len(order) < 2 {
		return nil
	}
	masks := make([]Config, len(order))
	for i, r := range order {
		masks[i] = rootMask[r]
	}

	// Cross-product check: the candidate list must be exactly
	// S_1 × … × S_p, where S_j is the set of distinct projections onto
	// component j. Each candidate is the union of its projections, so
	// the projection map is injective; cardinality equality then makes
	// it a bijection — every recombined design is a candidate.
	subs := make([][]Config, len(masks))
	product := 1
	for j, mask := range masks {
		seen := make(map[Config]bool, 16)
		var sub []Config
		for _, c := range configs {
			pr := c & mask
			if !seen[pr] {
				seen[pr] = true
				sub = append(sub, pr)
			}
		}
		subs[j] = sub
		if product > len(configs)/len(sub)+1 { // overflow guard
			return nil
		}
		product *= len(sub)
	}
	if product != len(configs) {
		return nil
	}
	return &partitionPlan{masks: masks, subs: subs}
}

// componentProblem builds the sub-problem a component is solved on: the
// same model and stages, the projected candidate list and endpoints,
// and no space bound (the bound was already applied to the full
// candidate list the projections came from).
func (p *Problem) componentProblem(mask Config, configs []Config) *Problem {
	sub := *p
	sub.Configs = configs
	sub.Initial = p.Initial & mask
	sub.SpaceBound = 0
	if p.Final != nil {
		f := *p.Final & mask
		sub.Final = &f
	}
	return &sub
}

// componentPoint is one entry of a component's cost-versus-budget
// curve: the best design found with at most that many counted changes.
type componentPoint struct {
	feasible bool
	cost     float64 // epsilon-free, recomputed through the model
	designs  []Config
	// changeStages lists the stage indices whose change counts against
	// k under the problem's policy (stage 0 appears only under
	// CountAll).
	changeStages []int
}

func newComponentPoint(sub *Problem, sol *Solution) componentPoint {
	return componentPoint{
		feasible:     true,
		cost:         sol.Cost,
		designs:      sol.Designs,
		changeStages: countedChangeStages(sub.Initial, sol.Designs, sub.Policy),
	}
}

// countedChangeStages lists the stages whose design change counts
// against k: stage 0 only under CountAll, every interior change always.
func countedChangeStages(initial Config, designs []Config, policy ChangePolicy) []int {
	var out []int
	if policy == CountAll && len(designs) > 0 && designs[0] != initial {
		out = append(out, 0)
	}
	for i := 1; i < len(designs); i++ {
		if designs[i] != designs[i-1] {
			out = append(out, i)
		}
	}
	return out
}

// component is one solved sub-lattice: its curve over budgets 0..K (a
// single point when K is unconstrained) and its admissible
// lower-bound share.
type component struct {
	mask    Config
	configs []Config
	exact   bool
	curve   []componentPoint
	lb      float64
}

// exactCurve computes a component's exact cost-versus-budget curve from
// one layered-DP run, the curve SweepK reads, keeping each point's
// solution for the recombination. The curve is monotone non-increasing: each budget keeps the
// previous design unless the DP offers a strictly cheaper one.
func exactCurve(ctx context.Context, sub *Problem, k int) ([]componentPoint, error) {
	if k == Unconstrained {
		sol, err := SolveUnconstrained(ctx, sub)
		if err != nil {
			return nil, err
		}
		return []componentPoint{newComponentPoint(sub, sol)}, nil
	}
	sols, err := sub.layeredCurve(ctx, k)
	if err != nil {
		return nil, err
	}
	points := make([]componentPoint, k+1)
	for l, sol := range sols {
		if sol != nil {
			points[l] = newComponentPoint(sub, sol)
		}
	}
	return points, nil
}

// beamState is one (configuration, layer) node of the anytime search.
type beamState struct {
	cfg, layer int32
	cost       float64
	parent     int32 // index into the previous stage's kept slice
}

// beamCurve runs the beam-pruned anytime search, one pass at the given
// width, and pairs its curve with the admissible lower bound: the
// unconstrained optimum of the sub-problem (a relaxation of any change
// budget).
func beamCurve(ctx context.Context, sub *Problem, k, width int) ([]componentPoint, float64, error) {
	m, kern, err := sub.solveInputs(ctx)
	if err != nil {
		return nil, 0, err
	}
	lbSol, err := SolveUnconstrained(ctx, sub)
	if err != nil {
		return nil, 0, err
	}
	points, err := runBeam(ctx, sub, m, kern, k, width)
	if err != nil {
		return nil, 0, err
	}
	return points, lbSol.Cost, nil
}

// runBeam is the fixed-width pass over the sub-problem's usable
// candidates: top-width (cost, layer, cfg) states kept per stage,
// expanded by stay and move edges, with per-budget endpoints backtracked
// into a curve. Everything is serial and tie-broken by a total order, so
// the search is deterministic regardless of Problem.Parallelism.
func runBeam(ctx context.Context, sub *Problem, m *matrices, kern transRelaxer, k, width int) ([]componentPoint, error) {
	configs := m.configs
	nc := len(configs)
	counting := k != Unconstrained
	kept := make([][]beamState, sub.Stages)

	sortTrim := func(s []beamState) []beamState {
		sort.Slice(s, func(a, b int) bool {
			if s[a].cost != s[b].cost {
				return s[a].cost < s[b].cost
			}
			if s[a].layer != s[b].layer {
				return s[a].layer < s[b].layer
			}
			return s[a].cfg < s[b].cfg
		})
		if len(s) > width {
			s = s[:width]
		}
		return s
	}

	cur := make([]beamState, 0, nc)
	for j := 0; j < nc; j++ {
		l := int32(0)
		if counting && sub.Policy == CountAll && configs[j] != sub.Initial {
			l = 1
		}
		if counting && int(l) > k {
			continue
		}
		v := m.initTrans[j] + m.exec[0][j]
		if math.IsInf(v, 1) {
			continue
		}
		cur = append(cur, beamState{cfg: int32(j), layer: l, cost: v, parent: -1})
	}
	cur = sortTrim(cur)
	kept[0] = cur

	for i := 1; i < sub.Stages; i++ {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		execRow := m.exec[i]
		next := make([]beamState, 0, len(cur)*2)
		idx := make(map[[2]int32]int, len(cur)*2)
		push := func(cfg, layer int32, cost float64, from int32) {
			if math.IsInf(cost, 1) {
				return
			}
			key := [2]int32{cfg, layer}
			if at, ok := idx[key]; ok {
				if cost < next[at].cost {
					next[at].cost = cost
					next[at].parent = from
				}
				return
			}
			idx[key] = len(next)
			next = append(next, beamState{cfg: cfg, layer: layer, cost: cost, parent: from})
		}
		for si := range cur {
			s := cur[si]
			push(s.cfg, s.layer, s.cost+execRow[s.cfg], int32(si))
			nl := s.layer
			if counting {
				nl++
				if int(nl) > k {
					continue
				}
			}
			for t := 0; t < nc; t++ {
				if int32(t) == s.cfg {
					continue
				}
				push(int32(t), nl, s.cost+kern.transCost(int(s.cfg), t)+execRow[t], int32(si))
			}
		}
		cur = sortTrim(next)
		kept[i] = cur
	}

	backtrack := func(last int) []Config {
		designs := make([]Config, sub.Stages)
		si := last
		for i := sub.Stages - 1; i >= 0; i-- {
			st := kept[i][si]
			designs[i] = configs[st.cfg]
			si = int(st.parent)
		}
		return designs
	}

	budgets := 1
	if counting {
		budgets = k + 1
	}
	points := make([]componentPoint, budgets)
	var prev *Solution
	prevIdx := -1
	for l := 0; l < budgets; l++ {
		bestIdx, bestLayer, bestCfg := -1, int32(0), int32(0)
		bestTotal := math.Inf(1)
		for si, s := range kept[sub.Stages-1] {
			if counting && int(s.layer) > l {
				continue
			}
			total := s.cost
			if m.finalTrans != nil {
				total += m.finalTrans[s.cfg]
			}
			if total < bestTotal ||
				(total == bestTotal && (s.layer < bestLayer || (s.layer == bestLayer && s.cfg < bestCfg))) {
				bestTotal, bestIdx, bestLayer, bestCfg = total, si, s.layer, s.cfg
			}
		}
		if bestIdx < 0 {
			continue
		}
		sol := prev
		if bestIdx != prevIdx {
			sol = sub.NewSolution(backtrack(bestIdx))
		}
		if prev != nil && prev.Cost <= sol.Cost {
			sol = prev
		} else {
			prevIdx = bestIdx
		}
		prev = sol
		points[l] = newComponentPoint(sub, sol)
	}
	return points, nil
}

// solveUnfactored handles problems the interaction graph did not split:
// exact delegation when the lattice (or candidate count) is within the
// exact ceilings, the anytime beam over the whole candidate list
// otherwise.
func solveUnfactored(ctx context.Context, p *Problem, configs []Config, width int, forceBeam bool) (*PartitionedSolution, error) {
	span := spanOf(configs)
	if exactAffordable(configs) && !forceBeam {
		sol, _, err := solveExact(ctx, p)
		if err != nil {
			return nil, err
		}
		return &PartitionedSolution{
			Solution: sol, LowerBound: sol.Cost, Gap: 0, Components: 1,
			Reports: []ComponentReport{{
				Mask: span, Bits: span.Count(), Configs: len(configs),
				Exact: true, Budget: p.K, Cost: sol.Cost, LowerBound: sol.Cost,
			}},
		}, nil
	}
	sp := p.Tracer.Start(SpanPartitionComponent)
	points, lb, err := beamCurve(ctx, p, p.K, width)
	sp.End(obs.Int("bits", int64(span.Count())), obs.Int("configs", int64(len(configs))),
		obs.Bool("exact", false), obs.Bool("ok", err == nil))
	if err != nil {
		return nil, err
	}
	pt := points[len(points)-1]
	if !pt.feasible {
		return nil, fmt.Errorf("core: beam search found no design with at most %d changes: %w", p.K, ErrLatticeTooLarge)
	}
	sol := p.NewSolution(pt.designs)
	if err := p.CheckSolution(sol); err != nil {
		return nil, err
	}
	gap := clampGap(sol.Cost - lb)
	sol.Gap = gap
	return &PartitionedSolution{
		Solution: sol, LowerBound: lb, Gap: gap, Components: 1,
		Reports: []ComponentReport{{
			Mask: span, Bits: span.Count(), Configs: len(configs),
			Budget: p.K, Cost: sol.Cost, LowerBound: lb,
		}},
	}, nil
}

// clampGap snaps tiny floating-point residue (the epsilon tie-breaks
// and re-association noise of per-component sums) to an exact 0.
func clampGap(gap float64) float64 {
	if gap <= 1e-9*(1+math.Abs(gap)) {
		return 0
	}
	return gap
}

// solveFactored solves each discovered component and recombines.
func solveFactored(ctx context.Context, p *Problem, configs []Config, plan *partitionPlan, width int, forceBeam bool) (*PartitionedSolution, error) {
	comps := make([]*component, len(plan.masks))
	for j, mask := range plan.masks {
		sub := p.componentProblem(mask, plan.subs[j])
		exact := !forceBeam && exactAffordable(plan.subs[j])
		sp := p.Tracer.Start(SpanPartitionComponent)
		comp := &component{mask: mask, configs: plan.subs[j], exact: exact}
		var err error
		if exact {
			comp.curve, err = exactCurve(ctx, sub, p.K)
			if err == nil {
				last := comp.curve[len(comp.curve)-1]
				if last.feasible {
					comp.lb = last.cost
				} else {
					err = fmt.Errorf("core: component %s has no design with at most %d changes", mask.Format(nil), p.K)
				}
			}
		} else {
			comp.curve, comp.lb, err = beamCurve(ctx, sub, p.K, width)
			if err == nil && !comp.curve[len(comp.curve)-1].feasible {
				err = fmt.Errorf("core: beam search found no design for component %s within %d changes: %w",
					mask.Format(nil), p.K, ErrLatticeTooLarge)
			}
		}
		sp.End(obs.Int("bits", int64(mask.Count())), obs.Int("configs", int64(len(plan.subs[j]))),
			obs.Bool("exact", exact), obs.Bool("ok", err == nil))
		if err != nil {
			return nil, err
		}
		comps[j] = comp
	}
	return recombine(ctx, p, configs, comps)
}

// recombine assembles the global sequence from the per-component
// curves under the shared k-per-step constraint. The additive
// decomposition makes the global objective
//
//	Σ_j obj_j − (p−1)·Σ_i EXEC(i, ∅) + TRANS(C0, C0∩span)
//
// so per-component sums plus a constant offset track the global cost;
// the final solution is nevertheless re-priced through the full model.
// Budget splitting is conservative — simultaneous component moves at
// one stage count once globally — so a knapsack over the curves seeds
// a repair pass that grants components extra budget whenever the
// composed change count stays within K.
func recombine(ctx context.Context, p *Problem, configs []Config, comps []*component) (*PartitionedSolution, error) {
	sp := p.Tracer.Start(SpanPartitionRecombine)
	res, err := recombineInner(ctx, p, configs, comps)
	ok := err == nil
	gap := 0.0
	if ok {
		gap = res.Gap
	}
	sp.End(obs.Int("components", int64(len(comps))), obs.Bool("ok", ok), obs.Float("gap", gap))
	return res, err
}

func recombineInner(ctx context.Context, p *Problem, configs []Config, comps []*component) (*PartitionedSolution, error) {
	span := spanOf(configs)
	// offset converts Σ per-component objectives into the global
	// objective: each component re-counts the empty-design EXEC base,
	// and dropping the initial configuration's out-of-span structures
	// (a cost every candidate sequence pays, since candidates live
	// inside the span) belongs to no component.
	base := 0.0
	for i := 0; i < p.Stages; i++ {
		base += p.Model.Exec(i, 0)
	}
	offset := -float64(len(comps)-1)*base + p.Model.Trans(p.Initial, p.Initial&span)

	lb := offset
	allExact := true
	for _, c := range comps {
		lb += c.lb
		if !c.exact {
			allExact = false
		}
	}

	finish := func(alloc []int, provablyOptimal bool) (*PartitionedSolution, error) {
		designs := make([]Config, p.Stages)
		for j, c := range comps {
			for i, d := range c.curve[alloc[j]].designs {
				designs[i] |= d
			}
		}
		sol := p.NewSolution(designs)
		if err := p.CheckSolution(sol); err != nil {
			return nil, err
		}
		gap := clampGap(sol.Cost - lb)
		if provablyOptimal && allExact {
			gap = 0
		}
		sol.Gap = gap
		reports := make([]ComponentReport, len(comps))
		for j, c := range comps {
			budget := alloc[j]
			if p.K == Unconstrained {
				budget = Unconstrained
			}
			reports[j] = ComponentReport{
				Mask: c.mask, Bits: c.mask.Count(), Configs: len(c.configs),
				Exact: c.exact, Budget: budget,
				Cost: c.curve[alloc[j]].cost, LowerBound: c.lb,
			}
		}
		return &PartitionedSolution{
			Solution: sol, LowerBound: lb, Gap: gap,
			Components: len(comps), Factored: true, Reports: reports,
		}, nil
	}

	full := make([]int, len(comps))
	for j, c := range comps {
		full[j] = len(c.curve) - 1
	}
	if p.K == Unconstrained {
		// No shared budget to split: the full composition is globally
		// optimal whenever every component solved exactly.
		return finish(full, true)
	}

	// Fast path: if the unconstrained-budget composition already fits
	// within K global changes, it is optimal — every global sequence
	// induces a per-component sequence with no more changes than the
	// global one, so the sum of per-component optima is unbeatable.
	if composedChanges(p.Stages, comps, full) <= p.K {
		return finish(full, true)
	}

	// Knapsack over the component budget curves: alloc[j] = ℓ_j with
	// Σ ℓ_j ≤ K minimizing Σ curve_j[ℓ_j]. Curves are monotone, so the
	// split is exact for sequences whose component moves never share a
	// stage; the repair pass below recovers the shared-stage savings.
	inf := math.Inf(1)
	// dp[b] after component j: cheapest Σ curve cost with Σ ℓ ≤ b.
	dp := make([]float64, p.K+1) // all 0: zero components cost nothing at any budget
	choice := make([][]int32, len(comps))
	for j, c := range comps {
		choice[j] = make([]int32, p.K+1)
		ndp := make([]float64, p.K+1)
		for b := 0; b <= p.K; b++ {
			ndp[b] = inf
			choice[j][b] = -1
			for l := 0; l <= b && l < len(c.curve); l++ {
				pt := c.curve[l]
				if !pt.feasible {
					continue
				}
				rest := dp[b-l]
				if math.IsInf(rest, 1) {
					continue
				}
				if v := rest + pt.cost; v < ndp[b] {
					ndp[b] = v
					choice[j][b] = int32(l)
				}
			}
		}
		dp = ndp
	}

	if math.IsInf(dp[p.K], 1) {
		// No per-component split fits (e.g. CountAll forcing more
		// first-stage component changes than K, which coincide into
		// fewer global changes), and the fast path above already found
		// the full-budget composition over K: delegate to the exact
		// solver when affordable.
		if !exactAffordable(configs) {
			return nil, fmt.Errorf("core: no per-component budget split within %d changes: %w", p.K, ErrLatticeTooLarge)
		}
		sol, _, err := solveExact(ctx, p)
		if err != nil {
			return nil, err
		}
		return &PartitionedSolution{
			Solution: sol, LowerBound: sol.Cost, Gap: 0, Components: len(comps), Factored: true,
		}, nil
	}
	alloc := make([]int, len(comps))
	for j, b := len(comps)-1, p.K; j >= 0; j-- {
		alloc[j] = int(choice[j][b])
		b -= alloc[j]
	}

	// Repair: grant a component a bigger budget whenever the composed
	// global change count still fits K (moves landing on a stage where
	// another component already moves are free globally). Greedy best
	// improvement, deterministic tie-break (smallest j, then ℓ), each
	// step strictly decreasing the composed objective. Feasibility nests
	// in the budget, so every point above an allocated one is feasible.
	for {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		bestJ, bestL := -1, -1
		bestGain := 0.0
		for j, c := range comps {
			cl := c.curve[alloc[j]]
			for l := alloc[j] + 1; l < len(c.curve); l++ {
				gain := cl.cost - c.curve[l].cost
				if gain <= bestGain {
					continue
				}
				trial := alloc[j]
				alloc[j] = l
				fits := composedChanges(p.Stages, comps, alloc) <= p.K
				alloc[j] = trial
				if fits {
					bestJ, bestL, bestGain = j, l, gain
				}
			}
		}
		if bestJ < 0 {
			break
		}
		alloc[bestJ] = bestL
	}
	return finish(alloc, false)
}

// composedChanges counts the global design changes of a composed
// allocation: a stage changes globally exactly when some component
// changes there, so the count is the size of the union of the
// per-component counted change-stage sets.
func composedChanges(stages int, comps []*component, alloc []int) int {
	seen := make([]bool, stages)
	total := 0
	for j, c := range comps {
		for _, s := range c.curve[alloc[j]].changeStages {
			if !seen[s] {
				seen[s] = true
				total++
			}
		}
	}
	return total
}
