package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"dyndesign/internal/advisor"
	"dyndesign/internal/core"
	"dyndesign/internal/workload"
)

// QualityVsK quantifies what the change constraint costs: the optimal
// sequence execution cost for each k from 0 (static design) to l (the
// unconstrained optimum's change count), relative to the unconstrained
// optimum. The paper poses "how to choose k" as an open question; this
// curve is the data a DBA would choose from.
type QualityVsK struct {
	Ks            []int
	RelativeCost  []float64 // optimal cost at k / unconstrained cost
	Unconstrained float64
	L             int
}

// RunQualityVsK computes the quality curve on the W1 problem.
func RunQualityVsK(ctx context.Context, t2 *Table2Result) (_ *QualityVsK, err error) {
	end := experimentSpan("quality_vs_k")
	defer func() { end(err == nil) }()
	base, _, err := t2.Advisor.Problem(t2.W1, PaperOptions(core.Unconstrained))
	if err != nil {
		return nil, err
	}
	// One layered DP run holds every point of the curve; its last point
	// is the unconstrained optimum.
	curve, err := core.SweepK(ctx, base, core.Unconstrained)
	if err != nil {
		return nil, err
	}
	res := &QualityVsK{L: len(curve) - 1, Unconstrained: curve[len(curve)-1].Cost}
	for _, pt := range curve {
		res.Ks = append(res.Ks, pt.K)
		res.RelativeCost = append(res.RelativeCost, pt.Cost/res.Unconstrained)
	}
	return res, nil
}

// Render prints the quality curve.
func (r *QualityVsK) Render(w io.Writer) {
	fmt.Fprintf(w, "Ablation: optimal sequence cost vs change bound k\n")
	fmt.Fprintf(w, "          (relative to the unconstrained optimum, which uses l=%d changes)\n\n", r.L)
	fmt.Fprintf(w, "%4s %14s\n", "k", "relative cost")
	for i, k := range r.Ks {
		fmt.Fprintf(w, "%4d %13.1f%%\n", k, r.RelativeCost[i]*100)
	}
}

// RankingAblation measures the §5 path-ranking optimizer: expansions and
// runtime with and without infeasible-prefix pruning, per k. The paper
// predicts the worst case is "quite bad, particularly for small k".
type RankingAblation struct {
	Ks           []int
	PlainExpand  []int
	PrunedExpand []int
	PlainTime    []time.Duration
	PrunedTime   []time.Duration
	Exhausted    []bool // plain ranking ran out of budget at this k
	PrunedOut    []bool // pruned ranking ran out of budget at this k
}

// RunRankingAblation runs the ranking optimizer over the W1 problem for
// each k, with a bounded expansion budget.
func RunRankingAblation(ctx context.Context, t2 *Table2Result, ks []int, budget int) (_ *RankingAblation, err error) {
	end := experimentSpan("ranking_ablation")
	defer func() { end(err == nil) }()
	base, _, err := t2.Advisor.Problem(t2.W1, PaperOptions(core.Unconstrained))
	if err != nil {
		return nil, err
	}
	if _, err := core.SolveUnconstrained(ctx, base); err != nil { // warm the memo
		return nil, err
	}
	res := &RankingAblation{
		Ks:          ks,
		PlainExpand: make([]int, len(ks)), PrunedExpand: make([]int, len(ks)),
		PlainTime: make([]time.Duration, len(ks)), PrunedTime: make([]time.Duration, len(ks)),
		Exhausted: make([]bool, len(ks)), PrunedOut: make([]bool, len(ks)),
	}
	for i, k := range ks {
		pk := *base
		pk.K = k

		start := time.Now()
		plain, err := core.SolveRanking(ctx, &pk, core.RankingOptions{MaxExpansions: budget})
		if err != nil {
			return nil, err
		}
		res.PlainTime[i] = time.Since(start)
		res.PlainExpand[i] = plain.Expansions
		res.Exhausted[i] = plain.Exhausted

		start = time.Now()
		pruned, err := core.SolveRanking(ctx, &pk, core.RankingOptions{MaxExpansions: budget, Prune: true})
		if err != nil {
			return nil, err
		}
		res.PrunedTime[i] = time.Since(start)
		res.PrunedExpand[i] = pruned.Expansions
		res.PrunedOut[i] = pruned.Exhausted
	}
	return res, nil
}

// Render prints the ranking ablation.
func (r *RankingAblation) Render(w io.Writer) {
	fmt.Fprintf(w, "Ablation: shortest-path ranking (§5), expansions per k\n")
	fmt.Fprintf(w, "          (plain ranking enumerates infeasible paths too; pruning discards them)\n\n")
	fmt.Fprintf(w, "%4s %15s %15s %12s %12s\n", "k", "plain expand", "pruned expand", "plain ms", "pruned ms")
	for i, k := range r.Ks {
		plain := fmt.Sprintf("%d", r.PlainExpand[i])
		if r.Exhausted[i] {
			plain += " (budget!)"
		}
		pruned := fmt.Sprintf("%d", r.PrunedExpand[i])
		if r.PrunedOut[i] {
			pruned += " (budget!)"
		}
		fmt.Fprintf(w, "%4d %15s %15s %12.2f %12.2f\n", k, plain, pruned,
			float64(r.PlainTime[i].Microseconds())/1000, float64(r.PrunedTime[i].Microseconds())/1000)
	}
}

// StrategyComparison is the table that decides which solvers are
// production strategies: every row of core's strategy table through
// core.Solve, then the three library functions by name, each timed
// alone, one cell at a time, over three fixtures and three change bounds.
// A heuristic belongs in core's table iff some cell here has it
// undominated: no other row at least as fast and at least as cheap. The
// exact solvers stay whatever their cells say; they are the oracle.
type StrategyComparison struct {
	Ks       []int
	Fixtures []ComparisonFixture
}

// ComparisonFixture is one problem family of the comparison.
type ComparisonFixture struct {
	Name            string
	Stages, Configs int
	// L is the change count of the unconstrained optimum: a bound of L
	// or more does not bind.
	L int
	// Optimal[i] is the exact optimum at Ks[i] (the kaware row's cost).
	Optimal []float64
	Rows    []ComparisonRow
}

// ComparisonRow is one solver's cells, one per change bound.
type ComparisonRow struct {
	Name  string
	Cells []ComparisonCell
}

// ComparisonCell is one timed solve.
type ComparisonCell struct {
	Cost    float64
	Changes int
	// Gap is the optimality gap the solver itself reports (partitioned).
	Gap float64
	// Time is the median run; see timeIt.
	Time time.Duration
	// Exhausted marks a ranking run whose expansion budget ran out
	// before a feasible design appeared: the cell has a time and nothing
	// else, and takes no part in the dominance rule.
	Exhausted bool
}

// RunStrategyComparison builds the comparison at the table's scale over
// three fixtures: W1 over the paper's seven single-index configurations
// (the dense kernel), W1 over the full 2^6 lattice of the same six
// structures (the hypercube kernel; read-only, so its unconstrained
// optimum never changes design and no bound binds), and the same
// lattice over W1 with an INSERT burst after every fifth block (loadedW1),
// where dropping indexes for each load pays and every bound of the
// table binds. Cost rows are warmed first and each fixture's problem
// carries its solve cache, so a cell times graph work the way Figure 4
// does. rankingBudget bounds ranking's frontier pops on the
// seven-configuration fixture; the lattices get proportionally fewer,
// so that none holds more path nodes than another.
func RunStrategyComparison(ctx context.Context, t2 *Table2Result, rankingBudget int) (_ *StrategyComparison, err error) {
	end := experimentSpan("strategy_comparison")
	defer func() { end(err == nil) }()
	lattice := PaperSpace()
	lattice.Configs = nil
	latticeAdvisor, err := advisor.New(t2.DB, lattice)
	if err != nil {
		return nil, err
	}
	loaded, err := loadedW1(t2)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, s := range core.Strategies() {
		names = append(names, string(s))
	}
	names = append(names, "layered", "ranking", "rankmerge")
	res := &StrategyComparison{Ks: []int{2, 4, 8}}
	for _, fx := range []struct {
		name string
		adv  *advisor.Advisor
		w    *workload.Workload
	}{
		{"7 single-index configurations", t2.Advisor, t2.W1},
		{"full lattice over the 6 structures", latticeAdvisor, t2.W1},
		{"full lattice, a load after every fifth block", latticeAdvisor, loaded},
	} {
		base, _, err := fx.adv.Problem(fx.w, PaperOptions(core.Unconstrained))
		if err != nil {
			return nil, err
		}
		unc, err := core.SolveUnconstrained(ctx, base) // warms the rows
		if err != nil {
			return nil, err
		}
		ranking := core.RankingOptions{MaxExpansions: rankingBudget * len(t2.Advisor.Space().Configs) / len(base.Configs)}
		out := ComparisonFixture{Name: fx.name, Stages: base.Stages, Configs: len(base.Configs), L: unc.Changes}
		for _, name := range names {
			row := ComparisonRow{Name: name}
			for _, k := range res.Ks {
				pk := *base
				pk.K = k
				// A ranking row leaves a heap of path nodes behind; collect
				// it, or the rows after it run under a heap goal no other
				// row gets and never pay for a collection.
				runtime.GC()
				var sol *core.Solution
				_, d, err := timeIt(func() (err error) {
					sol, err = solveRow(ctx, name, &pk, ranking)
					return err
				})
				if err != nil {
					return nil, fmt.Errorf("experiments: %s, %s at k=%d: %w", fx.name, name, k, err)
				}
				cell := ComparisonCell{Time: d, Exhausted: sol == nil}
				if sol != nil {
					cell.Cost, cell.Changes, cell.Gap = sol.Cost, sol.Changes, sol.Gap
				}
				row.Cells = append(row.Cells, cell)
			}
			out.Rows = append(out.Rows, row)
		}
		for _, c := range out.Rows[0].Cells { // core's table leads with kaware
			out.Optimal = append(out.Optimal, c.Cost)
		}
		res.Fixtures = append(res.Fixtures, out)
	}
	return res, nil
}

// loadedW1 is W1 with a burst of INSERTs after every fifth block. A
// burst is a fiftieth of the table: each row costs every held index a
// few pages of maintenance and a rebuild costs about a page per fifty
// rows, so the unconstrained optimum drops its indexes for each load and
// rebuilds them after it — more changes than any bound of the table
// allows.
func loadedW1(t2 *Table2Result) (*workload.Workload, error) {
	rng := rand.New(rand.NewSource(t2.Scale.Seed + 901))
	domain := workload.DomainForRows(t2.Scale.Rows)
	every := 5 * t2.Scale.BlockSize
	w := &workload.Workload{Name: "W1+loads"}
	for at := 0; at < t2.W1.Len(); at += every {
		reads := t2.W1.Slice(at, min(at+every, t2.W1.Len()))
		w.Statements = append(w.Statements, reads.Statements...)
		w.Labels = append(w.Labels, reads.Labels...)
		inserts, err := workload.GenerateInserts(workload.PaperTable, 4, domain, rng, int(t2.Scale.Rows/50))
		if err != nil {
			return nil, err
		}
		w.Append("LOAD", inserts...)
	}
	return w, nil
}

// solveRow runs one row of the comparison: a strategy of core's table
// through core.Solve, or one of the three library functions by name —
// layered is core.SolveKAware, the always-layered relaxation the kaware
// row runs only where the bound binds; ranking is plain, as §5 states
// it. A nil solution is a ranking run whose budget ran out.
func solveRow(ctx context.Context, name string, p *core.Problem, ranking core.RankingOptions) (*core.Solution, error) {
	switch name {
	case "layered":
		return core.SolveKAware(ctx, p)
	case "ranking":
		res, err := core.SolveRanking(ctx, p, ranking)
		if err != nil {
			return nil, err
		}
		return res.Solution, nil
	case "rankmerge":
		return core.SolveRankAndMerge(ctx, p, ranking)
	}
	return core.Solve(ctx, p, core.Strategy(name))
}

// Undominated reports whether row r's cell at Ks[i] is on the fixture's
// frontier: no other row's cell there is at least as fast and at least
// as cheap.
func (f *ComparisonFixture) Undominated(r, i int) bool {
	c := f.Rows[r].Cells[i]
	if c.Exhausted {
		return false
	}
	for o, other := range f.Rows {
		oc := other.Cells[i]
		if o != r && !oc.Exhausted && oc.Time <= c.Time && oc.Cost <= c.Cost {
			return false
		}
	}
	return true
}

// Render prints the comparison, one block per fixture; a cell is
// "ms (cost over the optimum)", starred when undominated.
func (r *StrategyComparison) Render(w io.Writer) {
	fmt.Fprintf(w, "Ablation: the solver surface, one cell at a time\n")
	fmt.Fprintf(w, "          (median ms over warmed cost rows, cost over the exact optimum; * = no other row is\n")
	fmt.Fprintf(w, "          at least as fast and at least as cheap in that cell)\n")
	for _, f := range r.Fixtures {
		fmt.Fprintf(w, "\n%s: %d stages x %d configurations, unconstrained optimum has l=%d changes\n",
			f.Name, f.Stages, f.Configs, f.L)
		fmt.Fprintf(w, "%-12s", "solver")
		for _, k := range r.Ks {
			fmt.Fprintf(w, " %24s", fmt.Sprintf("k=%d", k))
		}
		fmt.Fprintln(w)
		for ri, row := range f.Rows {
			fmt.Fprintf(w, "%-12s", row.Name)
			for i, c := range row.Cells {
				ms := float64(c.Time.Microseconds()) / 1000
				cell := fmt.Sprintf("%.2f (budget exhausted)", ms)
				if !c.Exhausted {
					star := " "
					if f.Undominated(ri, i) {
						star = "*"
					}
					cell = fmt.Sprintf("%.2f (%.2f%%)%s", ms, 100*(c.Cost/f.Optimal[i]-1), star)
				}
				fmt.Fprintf(w, " %24s", cell)
			}
			fmt.Fprintln(w)
		}
	}
}

// PolicyAblation contrasts the two change-counting policies (DESIGN.md
// §3) at the same k: strict Definition 1 spends one of its k changes on
// the initial installation.
type PolicyAblation struct {
	Ks          []int
	FreeCost    []float64
	StrictCost  []float64
	FreeChanges []int
}

// RunPolicyAblation computes both policies' optima across k.
func RunPolicyAblation(ctx context.Context, t2 *Table2Result, ks []int) (_ *PolicyAblation, err error) {
	end := experimentSpan("policy_ablation")
	defer func() { end(err == nil) }()
	res := &PolicyAblation{
		Ks:       ks,
		FreeCost: make([]float64, len(ks)), StrictCost: make([]float64, len(ks)),
		FreeChanges: make([]int, len(ks)),
	}
	for i, k := range ks {
		opts := PaperOptions(k)
		pFree, _, err := t2.Advisor.Problem(t2.W1, opts)
		if err != nil {
			return nil, err
		}
		solFree, err := core.SolveKAware(ctx, pFree)
		if err != nil {
			return nil, err
		}
		opts.Policy = core.CountAll
		pStrict, _, err := t2.Advisor.Problem(t2.W1, opts)
		if err != nil {
			return nil, err
		}
		solStrict, err := core.SolveKAware(ctx, pStrict)
		if err != nil {
			return nil, err
		}
		res.FreeCost[i] = solFree.Cost
		res.StrictCost[i] = solStrict.Cost
		res.FreeChanges[i] = solFree.Changes
	}
	return res, nil
}

// Render prints the policy ablation.
func (r *PolicyAblation) Render(w io.Writer) {
	fmt.Fprintf(w, "Ablation: change-counting policy (FreeEndpoints vs strict Definition 1)\n\n")
	fmt.Fprintf(w, "%4s %16s %16s %10s\n", "k", "free endpoints", "strict Def. 1", "penalty")
	for i, k := range r.Ks {
		fmt.Fprintf(w, "%4d %16.0f %16.0f %9.2f%%\n", k, r.FreeCost[i], r.StrictCost[i],
			100*(r.StrictCost[i]/r.FreeCost[i]-1))
	}
}
