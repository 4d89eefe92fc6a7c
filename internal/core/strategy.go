package core

import (
	"context"
	"errors"
	"fmt"

	"dyndesign/internal/obs"
)

// Strategy names a production solution technique: one the advisor, the
// resilient ladder and the CLIs' -strategy flag can run. Shortest-path
// ranking and rank-and-merge are library functions (SolveRanking,
// SolveRankAndMerge) and not strategies: EXPERIMENTS.md's strategy
// table has the measurement that decided it, and the cell that keeps
// each heuristic here.
type Strategy string

// Strategies.
const (
	StrategyKAware    Strategy = "kaware"
	StrategyGreedySeq Strategy = "greedyseq"
	StrategyMerge     Strategy = "merge"
	StrategyHybrid    Strategy = "hybrid"
	// StrategyPartitioned factors the candidate lattice into
	// independent sub-lattices via the model's interaction graph and
	// recombines per-component exact (or beam-pruned anytime) solves;
	// problems that do not factor are delegated to the exact solver
	// when affordable, so the strategy is valid on any problem. The
	// returned Solution carries the reported optimality gap.
	StrategyPartitioned Strategy = "partitioned"
)

// strategyTable declares the production strategies once; Strategies,
// ParseStrategy, Solve and the resilient ladders all read it, so a
// strategy exists exactly when it has a row here. rung marks the
// degradation rungs: the heuristics DefaultLadder falls back to after
// its primary, in table order (each cheaper than the one before).
var strategyTable = []struct {
	name Strategy
	rung bool
	run  func(context.Context, *Problem) (*Solution, error)
}{
	{StrategyKAware, false, SolveKAware},
	{StrategyGreedySeq, true, func(ctx context.Context, p *Problem) (*Solution, error) {
		sol, _, err := SolveGreedySeq(ctx, p)
		return sol, err
	}},
	{StrategyMerge, true, func(ctx context.Context, p *Problem) (*Solution, error) {
		sol, _, err := SolveMergeFromUnconstrained(ctx, p)
		return sol, err
	}},
	{StrategyHybrid, false, func(ctx context.Context, p *Problem) (*Solution, error) {
		sol, _, err := SolveHybrid(ctx, p)
		return sol, err
	}},
	{StrategyPartitioned, false, func(ctx context.Context, p *Problem) (*Solution, error) {
		ps, err := SolvePartitioned(ctx, p)
		if err != nil {
			return nil, err
		}
		return ps.Solution, nil
	}},
}

// Strategies lists every available strategy.
func Strategies() []Strategy {
	out := make([]Strategy, len(strategyTable))
	for i, row := range strategyTable {
		out[i] = row.name
	}
	return out
}

// lookupStrategy finds name's row of the table; the empty name is the
// default, StrategyKAware.
func lookupStrategy(name Strategy) (Strategy, func(context.Context, *Problem) (*Solution, error), error) {
	if name == "" {
		name = StrategyKAware
	}
	for _, row := range strategyTable {
		if row.name == name {
			return row.name, row.run, nil
		}
	}
	return "", nil, fmt.Errorf("core: unknown strategy %q (want one of %v)", name, Strategies())
}

// ParseStrategy resolves a user-supplied strategy name; the empty name
// is the default, StrategyKAware. Front ends call it before any work
// starts: under a fallback ladder an unknown name otherwise fails only
// its own rung, and every solve is quietly answered by the next one.
func ParseStrategy(name string) (Strategy, error) {
	s, _, err := lookupStrategy(Strategy(name))
	return s, err
}

// Solve dispatches a problem to the named strategy with default
// options. It is the single entry point through which the advisor and
// the resilient supervisor run strategies, and the place where solve
// outcomes are classified into the Metrics ledger: a context-caused
// return (deadline, cancel, budget cause) counts as a cancellation and
// a *PanicError recovered from the worker pool as a recovered panic.
func Solve(ctx context.Context, p *Problem, strategy Strategy) (*Solution, error) {
	strategy, run, err := lookupStrategy(strategy)
	if err != nil {
		return nil, err
	}
	sp := p.Tracer.Start(SpanSolve)
	sol, err := run(ctx, p)
	sp.End(obs.String("strategy", string(strategy)), obs.Bool("ok", err == nil))
	if err != nil {
		var pe *PanicError
		switch {
		case errors.As(err, &pe):
			p.Metrics.noteRecoveredPanic()
		case ctxErr(ctx) != nil:
			p.Metrics.noteCancellation()
		}
	}
	return sol, err
}

// HybridChoice names the technique a hybrid solve actually ran.
type HybridChoice string

// Hybrid outcomes.
const (
	ChoseUnconstrained HybridChoice = "unconstrained" // the optimum already satisfied K
	ChoseKAware        HybridChoice = "kaware"
	ChoseMerge         HybridChoice = "merge"
)

// SolveHybrid implements the combination §6.4 suggests: the k-aware
// graph's cost grows linearly in K while merging's shrinks as K
// approaches the unconstrained optimum's change count l, so the solver
// picks whichever is predicted cheaper for the instance at hand.
//
// It first computes the unconstrained optimum (both branches need it or
// something at least as expensive). If that already has at most K
// changes it is returned as-is — it is optimal for the constrained
// problem too. Otherwise the work estimates
//
//	kaware ≈ (K+1) · n · m²      (layered DAG relaxation)
//	merge  ≈ (l−K) · l · m       (merge steps × pairs × candidates)
//
// decide the branch, and the choice made is reported. The estimates
// predate the hypercube kernel and ignore merging's O(n·m) prefix
// build, and past the first return the solve is one of the two branches
// plus the seed, so where K binds that branch's own strategy is never
// slower. What keeps the hybrid a Strategy is the first return: in
// EXPERIMENTS.md's strategy table it is undominated exactly where K
// does not bind, and no other strategy has that return.
func SolveHybrid(ctx context.Context, p *Problem) (*Solution, HybridChoice, error) {
	if err := p.Validate(); err != nil {
		return nil, "", err
	}
	if p.K == Unconstrained {
		sol, err := SolveUnconstrained(ctx, p)
		return sol, ChoseUnconstrained, err
	}
	unconstrained := *p
	unconstrained.K = Unconstrained
	seed, err := SolveUnconstrained(ctx, &unconstrained)
	if err != nil {
		return nil, "", err
	}
	l := CountChanges(p.Initial, seed.Designs, p.Policy)
	if l <= p.K {
		// Optimal and feasible: re-wrap under the constrained problem so
		// the change count reflects its policy.
		return p.NewSolution(seed.Designs), ChoseUnconstrained, nil
	}
	usable, err := p.usableConfigs()
	if err != nil {
		return nil, "", err
	}
	m := float64(len(usable))
	n := float64(p.Stages)
	kawareWork := float64(p.K+1) * n * m * m
	mergeWork := float64(l-p.K) * float64(l) * m
	if kawareWork <= mergeWork {
		sol, err := SolveKAware(ctx, p)
		return sol, ChoseKAware, err
	}
	sol, _, err := SolveMerge(ctx, p, seed)
	return sol, ChoseMerge, err
}
