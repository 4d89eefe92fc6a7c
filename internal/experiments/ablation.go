package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"dyndesign/internal/core"
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
	unc, err := core.SolveUnconstrained(ctx, base)
	if err != nil {
		return nil, err
	}
	res := &QualityVsK{Unconstrained: unc.Cost, L: unc.Changes}
	// The per-k solves are independent cells sharing one cached what-if
	// model (warmed by the unconstrained solve above), so they fan out
	// across cores; slot k of each slice belongs to cell k.
	res.Ks = make([]int, unc.Changes+1)
	res.RelativeCost = make([]float64, unc.Changes+1)
	err = fanOut(ctx, unc.Changes+1, func(k int) error {
		pk := *base
		pk.K = k
		sol, err := core.SolveKAware(ctx, &pk)
		if err != nil {
			return err
		}
		res.Ks[k] = k
		res.RelativeCost[k] = sol.Cost / unc.Cost
		return nil
	})
	if err != nil {
		return nil, err
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
	// Per-k cells fan out against the shared warmed model. Expansion
	// counts are scheduling-independent; the per-cell wall times are
	// indicative under contention (the experiment's primary output is
	// the expansion count, which the paper's "quite bad" prediction is
	// about).
	err = fanOut(ctx, len(ks), func(i int) error {
		pk := *base
		pk.K = ks[i]

		start := time.Now()
		plain, err := core.SolveRanking(ctx, &pk, core.RankingOptions{MaxExpansions: budget})
		if err != nil {
			return err
		}
		res.PlainTime[i] = time.Since(start)
		res.PlainExpand[i] = plain.Expansions
		res.Exhausted[i] = plain.Exhausted

		start = time.Now()
		pruned, err := core.SolveRanking(ctx, &pk, core.RankingOptions{MaxExpansions: budget, Prune: true})
		if err != nil {
			return err
		}
		res.PrunedTime[i] = time.Since(start)
		res.PrunedExpand[i] = pruned.Expansions
		res.PrunedOut[i] = pruned.Exhausted
		return nil
	})
	if err != nil {
		return nil, err
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

// StrategyComparison runs every strategy on the same constrained problem
// and reports cost, changes, and runtime — the library-level summary of
// §3–§5.
type StrategyComparison struct {
	K       int
	Names   []string
	Costs   []float64
	Changes []int
	Times   []time.Duration
	Optimal float64
}

// RunStrategyComparison compares all strategies at one k on W1.
func RunStrategyComparison(ctx context.Context, t2 *Table2Result, k int) (_ *StrategyComparison, err error) {
	end := experimentSpan("strategy_comparison")
	defer func() { end(err == nil) }()
	base, _, err := t2.Advisor.Problem(t2.W1, PaperOptions(k))
	if err != nil {
		return nil, err
	}
	if _, err := core.SolveUnconstrained(ctx, &core.Problem{
		Stages: base.Stages, Configs: base.Configs, Initial: base.Initial,
		Final: base.Final, K: core.Unconstrained, Policy: base.Policy, Model: base.Model,
	}); err != nil { // warm the memo
		return nil, err
	}
	// Every strategy solves the same shared problem concurrently — the
	// per-row locks of the what-if store make that safe, and it is
	// exactly the "several strategies on one cached model" scenario the
	// costing layer is built for. Costs and changes are scheduling-independent;
	// wall times are indicative under contention.
	strategies := core.Strategies()
	res := &StrategyComparison{
		K:       k,
		Names:   make([]string, len(strategies)),
		Costs:   make([]float64, len(strategies)),
		Changes: make([]int, len(strategies)),
		Times:   make([]time.Duration, len(strategies)),
	}
	err = fanOut(ctx, len(strategies), func(i int) error {
		s := strategies[i]
		start := time.Now()
		var sol *core.Solution
		var err error
		if s == core.StrategyRanking {
			// Plain ranking blows up for small k exactly as the paper
			// warns; run it with a budget and report exhaustion rather
			// than hanging.
			var rr *core.RankingResult
			rr, err = core.SolveRanking(ctx, base, core.RankingOptions{MaxExpansions: 2_000_000})
			if err == nil {
				sol = rr.Solution // nil when exhausted
			}
		} else {
			sol, err = core.Solve(ctx, base, s)
		}
		if err != nil {
			return fmt.Errorf("experiments: strategy %s: %w", s, err)
		}
		res.Names[i] = string(s)
		if sol == nil {
			res.Costs[i] = 0
			res.Changes[i] = -1
		} else {
			res.Costs[i] = sol.Cost
			res.Changes[i] = sol.Changes
		}
		res.Times[i] = time.Since(start)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, s := range strategies {
		if s == core.StrategyKAware && res.Changes[i] >= 0 {
			res.Optimal = res.Costs[i]
		}
	}
	return res, nil
}

// Render prints the strategy comparison.
func (r *StrategyComparison) Render(w io.Writer) {
	fmt.Fprintf(w, "Ablation: all strategies at k=%d\n\n", r.K)
	fmt.Fprintf(w, "%-12s %14s %10s %10s %10s\n", "strategy", "cost", "vs opt", "changes", "ms")
	for i, n := range r.Names {
		if r.Changes[i] < 0 {
			fmt.Fprintf(w, "%-12s %14s %10s %10s %10.2f  (expansion budget exhausted)\n",
				n, "-", "-", "-", float64(r.Times[i].Microseconds())/1000)
			continue
		}
		fmt.Fprintf(w, "%-12s %14.0f %9.2f%% %10d %10.2f\n",
			n, r.Costs[i], 100*(r.Costs[i]/r.Optimal-1), r.Changes[i],
			float64(r.Times[i].Microseconds())/1000)
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
	// (k × policy) cells are independent; both policies of one k share
	// a cell so the fan-out stays coarse-grained.
	err = fanOut(ctx, len(ks), func(i int) error {
		opts := PaperOptions(ks[i])
		pFree, _, err := t2.Advisor.Problem(t2.W1, opts)
		if err != nil {
			return err
		}
		solFree, err := core.SolveKAware(ctx, pFree)
		if err != nil {
			return err
		}
		opts.Policy = core.CountAll
		pStrict, _, err := t2.Advisor.Problem(t2.W1, opts)
		if err != nil {
			return err
		}
		solStrict, err := core.SolveKAware(ctx, pStrict)
		if err != nil {
			return err
		}
		res.FreeCost[i] = solFree.Cost
		res.StrictCost[i] = solStrict.Cost
		res.FreeChanges[i] = solFree.Changes
		return nil
	})
	if err != nil {
		return nil, err
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
