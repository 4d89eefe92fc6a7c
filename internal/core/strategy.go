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
	run  strategyRun
}{
	{StrategyKAware, false, solveExact},
	{StrategyGreedySeq, true, func(ctx context.Context, p *Problem) (*Solution, []obs.Attr, error) {
		sol, _, err := SolveGreedySeq(ctx, p)
		return sol, nil, err
	}},
	{StrategyMerge, true, func(ctx context.Context, p *Problem) (*Solution, []obs.Attr, error) {
		sol, _, err := SolveMergeFromUnconstrained(ctx, p)
		return sol, nil, err
	}},
	{StrategyPartitioned, false, func(ctx context.Context, p *Problem) (*Solution, []obs.Attr, error) {
		sol, err := SolvePartitioned(ctx, p)
		return sol, nil, err
	}},
}

// strategyRun runs one strategy; the attributes it returns, if any, are
// added to the solve span.
type strategyRun func(context.Context, *Problem) (*Solution, []obs.Attr, error)

// Strategies lists every available strategy.
func Strategies() []Strategy {
	out := make([]Strategy, len(strategyTable))
	for i, row := range strategyTable {
		out[i] = row.name
	}
	return out
}

// Heuristic reports whether s is one of the table's heuristics (its
// rungs): a strategy whose answer need not be optimal, so that its cost
// need not fall as the change bound grows.
func Heuristic(s Strategy) bool {
	for _, row := range strategyTable {
		if row.name == s {
			return row.rung
		}
	}
	return false
}

// lookupStrategy finds name's row of the table; the empty name is the
// default, StrategyKAware.
func lookupStrategy(name Strategy) (Strategy, strategyRun, error) {
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
	sol, attrs, err := run(ctx, p)
	sp.End(append([]obs.Attr{obs.String("strategy", string(strategy)), obs.Bool("ok", err == nil)}, attrs...)...)
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
