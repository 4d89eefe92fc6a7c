package core

import (
	"context"
	"fmt"
	"math"

	"dyndesign/internal/obs"
)

// SolveMerge implements sequential design merging (§4.2): starting from
// a solution to the (usually unconstrained) problem, it repeatedly picks
// the adjacent pair of distinct configurations whose replacement by a
// single configuration has the smallest penalty
//
//	p = [TRANS(C_{i-1}, C') + EXEC(S_i ∪ S_{i+1}, C') + TRANS(C', C_{i+2})]
//	  - [TRANS(C_{i-1}, C_i) + EXEC(S_i, C_i) + TRANS(C_i, C_{i+1})
//	     + EXEC(S_{i+1}, C_{i+1}) + TRANS(C_{i+1}, C_{i+2})]
//
// and applies it, until the change bound K is met. Each step removes at
// least one change (two, when C' coalesces with a neighbour). The result
// is feasible but not guaranteed optimal. It returns the refined
// solution and the number of merge steps taken.
func SolveMerge(ctx context.Context, p *Problem, initial *Solution) (*Solution, int, error) {
	return SolveMergeOpts(ctx, p, initial, MergeOptions{MemoizeSegments: true})
}

// MergeOptions configures SolveMergeOpts.
type MergeOptions struct {
	// MemoizeSegments, when true, precomputes per-configuration EXEC
	// prefix sums so each penalty evaluation is O(1) — an improvement
	// over the paper, whose O(2^m(l²−k²)) complexity assumes segment
	// costs are re-summed on every evaluation. Set false for the
	// faithful cost profile (used to regenerate Figure 4 and by the
	// ablation benchmarks that quantify the speedup).
	MemoizeSegments bool
}

// SolveMergeOpts is SolveMerge with explicit options. The merge loop
// checks the context once per candidate pair, so cancellation latency
// is bounded by one O(m) penalty scan even in the faithful
// (un-memoized) mode where each scan re-sums segment costs.
func SolveMergeOpts(ctx context.Context, p *Problem, initial *Solution, opts MergeOptions) (*Solution, int, error) {
	if err := p.Validate(); err != nil {
		return nil, 0, err
	}
	if len(initial.Designs) != p.Stages {
		return nil, 0, fmt.Errorf("core: initial solution has %d designs for %d stages", len(initial.Designs), p.Stages)
	}
	configs, err := p.usableConfigs()
	if err != nil {
		return nil, 0, err
	}
	if p.K == Unconstrained {
		return p.NewSolution(initial.Designs), 0, nil
	}

	// With memoization on, prefix[c][i] holds the sum of
	// EXEC(stage, configs[c]) for stage < i so segment sums are O(1).
	// Without it, every penalty evaluation consults the cost model per
	// stage of the merged segment — the cost profile the paper's
	// O(2^m(l²−k²)) complexity assumes.
	// Rows are independent, so they are filled by a bounded worker
	// pool; each row is summed serially left to right, keeping the
	// floating-point association — and hence the sums — bit-identical
	// to the serial build.
	var prefix [][]float64
	if opts.MemoizeSegments {
		prefix = make([][]float64, len(configs))
		err := ParallelFor(ctx, p.workers(), len(configs), func(ci int) {
			cfg := configs[ci]
			row := make([]float64, p.Stages+1)
			for i := 0; i < p.Stages; i++ {
				row[i+1] = row[i] + p.Model.Exec(i, cfg)
			}
			prefix[ci] = row
		})
		if err != nil {
			return nil, 0, err
		}
	}

	// The design sequence as runs of equal configurations.
	type run struct {
		cfg        Config
		start, end int // stage range [start, end)
	}
	var runs []run
	for i := 0; i < p.Stages; i++ {
		c := initial.Designs[i]
		if len(runs) > 0 && runs[len(runs)-1].cfg == c {
			runs[len(runs)-1].end = i + 1
			continue
		}
		runs = append(runs, run{cfg: c, start: i, end: i + 1})
	}

	cfgIndex := make(map[Config]int, len(configs))
	for i, c := range configs {
		cfgIndex[c] = i
	}
	execOf := func(c Config, lo, hi int) float64 {
		// Configurations outside the usable list (an initial solution
		// from a different space bound) fall through to the model too.
		if ci, ok := cfgIndex[c]; ok && prefix != nil {
			return prefix[ci][hi] - prefix[ci][lo]
		}
		total := 0.0
		for i := lo; i < hi; i++ {
			total += p.Model.Exec(i, c)
		}
		return total
	}

	changes := func() int {
		n := len(runs) - 1
		if p.Policy == CountAll && runs[0].cfg != p.Initial {
			n++
		}
		return n
	}

	steps := 0
	for changes() > p.K {
		step := p.Tracer.Start(SpanMergeStep)
		if len(runs) == 1 {
			// Only possible under CountAll with K == 0: the whole
			// sequence must stay on the initial configuration — which
			// is only feasible when that configuration is itself in
			// the usable (space-bound-filtered) candidate set.
			if _, ok := cfgIndex[p.Initial]; !ok {
				step.End(obs.Int("step", int64(steps)), obs.Bool("ok", false))
				return nil, steps, fmt.Errorf(
					"core: no design with at most %d changes exists under %s: the initial configuration is outside the usable candidate set",
					p.K, p.Policy)
			}
			runs[0].cfg = p.Initial
			step.End(obs.Int("step", int64(steps)), obs.Bool("ok", true))
			break
		}
		bestPenalty := math.Inf(1)
		bestPair := -1
		var bestCfg Config
		for r := 0; r+1 < len(runs); r++ {
			if err := ctxErr(ctx); err != nil {
				step.End(obs.Int("step", int64(steps)), obs.Bool("ok", false))
				return nil, steps, err
			}
			left, right := runs[r], runs[r+1]
			prev := p.Initial
			if r > 0 {
				prev = runs[r-1].cfg
			}
			hasNext := false
			var next Config
			if r+2 < len(runs) {
				next, hasNext = runs[r+2].cfg, true
			} else if p.Final != nil {
				next, hasNext = *p.Final, true
			}
			oldCost := p.Model.Trans(prev, left.cfg) +
				execOf(left.cfg, left.start, left.end) +
				p.Model.Trans(left.cfg, right.cfg) +
				execOf(right.cfg, right.start, right.end)
			if hasNext {
				oldCost += p.Model.Trans(right.cfg, next)
			}
			for _, cand := range configs {
				newCost := p.Model.Trans(prev, cand) +
					execOf(cand, left.start, right.end)
				if hasNext {
					newCost += p.Model.Trans(cand, next)
				}
				if penalty := newCost - oldCost; penalty < bestPenalty {
					bestPenalty = penalty
					bestPair = r
					bestCfg = cand
				}
			}
		}
		if bestPair < 0 {
			step.End(obs.Int("step", int64(steps)), obs.Bool("ok", false))
			return nil, steps, fmt.Errorf("core: merging stalled with %d changes (bound %d)", changes(), p.K)
		}
		// Replace the pair with the single best configuration and
		// coalesce with equal neighbours.
		merged := run{cfg: bestCfg, start: runs[bestPair].start, end: runs[bestPair+1].end}
		runs = append(runs[:bestPair], append([]run{merged}, runs[bestPair+2:]...)...)
		for i := len(runs) - 1; i > 0; i-- {
			if runs[i].cfg == runs[i-1].cfg {
				runs[i-1].end = runs[i].end
				runs = append(runs[:i], runs[i+1:]...)
			}
		}
		steps++
		step.End(obs.Int("step", int64(steps)), obs.Int("runs", int64(len(runs))), obs.Bool("ok", true))
	}

	designs := make([]Config, p.Stages)
	for _, r := range runs {
		for i := r.start; i < r.end; i++ {
			designs[i] = r.cfg
		}
	}
	return p.NewSolution(designs), steps, nil
}

// SolveMergeFromUnconstrained runs sequential merging seeded with the
// unconstrained sequence-graph optimum, the way the paper's §4.2
// describes and its Figure 4 measures.
func SolveMergeFromUnconstrained(ctx context.Context, p *Problem) (*Solution, int, error) {
	unconstrained := *p
	unconstrained.K = Unconstrained
	seed, err := SolveUnconstrained(ctx, &unconstrained)
	if err != nil {
		return nil, 0, err
	}
	return SolveMerge(ctx, p, seed)
}
