package core

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"dyndesign/internal/obs"
)

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
// decide the branch. The choice made is reported for the ablation
// benchmarks that validate the switch-over point.
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

// Strategy names a constrained-design solution technique; the advisor
// exposes these to users and the CLI.
type Strategy string

// Strategies.
const (
	StrategyKAware       Strategy = "kaware"
	StrategyGreedySeq    Strategy = "greedyseq"
	StrategyMerge        Strategy = "merge"
	StrategyRanking      Strategy = "ranking"
	StrategyRankAndMerge Strategy = "rankmerge"
	StrategyHybrid       Strategy = "hybrid"
	// StrategyPartitioned factors the candidate lattice into
	// independent sub-lattices via the model's interaction graph and
	// recombines per-component exact (or beam-pruned anytime) solves;
	// problems that do not factor are delegated to the exact solver
	// when affordable, so the strategy is valid on any problem. The
	// returned Solution carries the reported optimality gap.
	StrategyPartitioned Strategy = "partitioned"
)

// Strategies lists every available strategy.
func Strategies() []Strategy {
	return []Strategy{
		StrategyKAware, StrategyGreedySeq, StrategyMerge,
		StrategyRanking, StrategyRankAndMerge, StrategyHybrid,
		StrategyPartitioned,
	}
}

// ParseStrategy resolves a user-supplied strategy name; the empty name
// is the default, StrategyKAware. Front ends call it before any work
// starts: under a fallback ladder an unknown name otherwise fails only
// its own rung, and every solve is quietly answered by the next one.
func ParseStrategy(name string) (Strategy, error) {
	if name == "" {
		return StrategyKAware, nil
	}
	if s := Strategy(name); slices.Contains(Strategies(), s) {
		return s, nil
	}
	return "", fmt.Errorf("core: unknown strategy %q (want one of %v)", name, Strategies())
}

// Solve dispatches a problem to the named strategy with default
// options. It is the single entry point through which the advisor and
// the resilient supervisor run strategies, and the place where solve
// outcomes are classified into the Metrics ledger: a context-caused
// return (deadline, cancel, budget cause) counts as a cancellation and
// a *PanicError recovered from the worker pool as a recovered panic.
func Solve(ctx context.Context, p *Problem, strategy Strategy) (*Solution, error) {
	effective := strategy
	if effective == "" {
		effective = StrategyKAware
	}
	sp := p.Tracer.Start(SpanSolve)
	sol, err := solve(ctx, p, strategy)
	sp.End(obs.String("strategy", string(effective)), obs.Bool("ok", err == nil))
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

// solve is the raw strategy dispatch.
func solve(ctx context.Context, p *Problem, strategy Strategy) (*Solution, error) {
	switch strategy {
	case StrategyKAware, "":
		return SolveKAware(ctx, p)
	case StrategyGreedySeq:
		sol, _, err := SolveGreedySeq(ctx, p)
		return sol, err
	case StrategyMerge:
		sol, _, err := SolveMergeFromUnconstrained(ctx, p)
		return sol, err
	case StrategyRanking:
		return rankingSolution(ctx, p, RankingOptions{})
	case StrategyRankAndMerge:
		return SolveRankAndMerge(ctx, p, RankingOptions{})
	case StrategyHybrid:
		sol, _, err := SolveHybrid(ctx, p)
		return sol, err
	case StrategyPartitioned:
		ps, err := SolvePartitioned(ctx, p)
		if err != nil {
			return nil, err
		}
		return ps.Solution, nil
	default:
		return nil, fmt.Errorf("core: unknown strategy %q", strategy)
	}
}
