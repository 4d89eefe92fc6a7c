package core

import (
	"container/heap"
	"context"
	"errors"
	"fmt"

	"dyndesign/internal/obs"
)

// ErrRankingBudget is the typed error surfaced when shortest-path
// ranking exhausts its expansion budget before a feasible design
// appears. Callers that can degrade gracefully (SolveRankAndMerge)
// check RankingResult.Exhausted instead; a caller that must produce a
// solution or fail returns RankingResult.Err, which wraps this one, so
// its callers can errors.Is on it rather than risk a nil-solution
// dereference.
var ErrRankingBudget = errors.New("core: ranking expansion budget exhausted before a feasible design appeared")

// RankingOptions configures SolveRanking.
type RankingOptions struct {
	// MaxExpansions bounds the number of nodes popped from the frontier
	// before giving up (0 means DefaultRankingBudget). The paper notes
	// the worst case of path ranking "can be quite bad, particularly for
	// small k"; the budget turns that into a detectable outcome instead
	// of a hang.
	MaxExpansions int
	// Prune, when true, discards partial paths that already exceed the
	// change bound. This is the natural improvement over faithful path
	// ranking (which enumerates every path in cost order, feasible or
	// not) and is measured against it in the ablation benchmarks.
	Prune bool
}

// DefaultRankingBudget is the default expansion budget.
const DefaultRankingBudget = 5_000_000

// parallelSweepMinConfigs is the candidate-set size from which the
// backward cost-to-go sweep fans out per stage; below it the serial
// loop is faster than scheduling workers.
const parallelSweepMinConfigs = 32

// rankingCtxCheckInterval is how many frontier expansions the ranking
// enumeration performs between context checks: frequent enough that
// cancellation lands within microseconds, rare enough that the check is
// free relative to the heap work.
const rankingCtxCheckInterval = 1024

// RankingResult reports the outcome of SolveRanking.
type RankingResult struct {
	// Solution is the optimal constrained design, nil when the budget
	// was exhausted first.
	Solution *Solution
	// PathsRanked counts the complete paths generated in cost order,
	// including the returned one.
	PathsRanked int
	// Expansions counts frontier pops.
	Expansions int
	// Exhausted is true when the budget ran out before a feasible path
	// appeared.
	Exhausted bool
}

// Err returns an error wrapping ErrRankingBudget when the ranking ended
// without a solution because its expansion budget ran out, and nil
// otherwise. Callers that cannot tolerate a nil Solution should check
// it instead of inspecting the flags by hand.
func (r *RankingResult) Err() error {
	if r.Exhausted && r.Solution == nil {
		return fmt.Errorf("%w (%d expansions, %d complete paths ranked)",
			ErrRankingBudget, r.Expansions, r.PathsRanked)
	}
	return nil
}

// pathNode is one node of the path tree: a partial design sequence
// represented by parent links.
type pathNode struct {
	stage   int
	cfg     int32
	changes int32
	g       float64 // cost of the partial path
	f       float64 // g + exact cost-to-go
	parent  *pathNode
}

type pathHeap []*pathNode

func (h pathHeap) Len() int           { return len(h) }
func (h pathHeap) Less(i, j int) bool { return h[i].f < h[j].f }
func (h pathHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *pathHeap) Push(x any)        { *h = append(*h, x.(*pathNode)) }
func (h *pathHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

// SolveRanking solves the constrained problem by shortest-path ranking
// (§5): complete design sequences are generated in ascending order of
// sequence execution cost, and the first one with at most K changes is
// returned — it is optimal, because every sequence generated before it
// was infeasible and every later one costs at least as much.
//
// The ranking is realized as best-first search over the path tree of the
// sequence graph with an exact cost-to-go heuristic (computed by a
// backward sweep), which pops complete paths in exactly ascending cost —
// equivalent in output order to the path-deletion ranking algorithms the
// paper cites, without materializing modified graphs.
//
// The enumeration checks the context every rankingCtxCheckInterval
// frontier pops, so even a ranking that would blow through millions of
// expansions stops promptly on cancellation.
func SolveRanking(ctx context.Context, p *Problem, opts RankingOptions) (*RankingResult, error) {
	if p.K == Unconstrained {
		sol, err := SolveUnconstrained(ctx, p)
		if err != nil {
			return nil, err
		}
		return &RankingResult{Solution: sol, PathsRanked: 1, Expansions: p.Stages}, nil
	}
	m, kern, err := p.solveInputs(ctx)
	if err != nil {
		return nil, err
	}
	configs := m.configs
	scr := kern.newScratch()
	nc := len(configs)
	budget := opts.MaxExpansions
	if budget <= 0 {
		budget = DefaultRankingBudget
	}

	// Exact cost-to-go: h[i][c] is the cheapest completion after
	// executing stage i under configs[c] (including the final
	// transition when constrained). Stages depend on each other, but
	// within a stage the kernel's backward relaxation is independent per
	// cell, so the dense kernel sweeps wide candidate sets with a worker
	// pool; narrow ones (the paper's 7 configurations) stay on the
	// serial loop, where goroutine overhead would dwarf the O(nc²)
	// arithmetic. The hypercube kernel's sweep is one serial lattice
	// pass, already cheaper than the fan-out.
	sweep := p.Tracer.Start(SpanRankingSweep)
	h := make([][]float64, p.Stages)
	last := make([]float64, nc)
	if m.finalTrans != nil {
		copy(last, m.finalTrans)
	}
	h[p.Stages-1] = last
	sweepWorkers := 1
	if nc >= parallelSweepMinConfigs {
		sweepWorkers = p.workers()
	}
	for i := p.Stages - 2; i >= 0; i-- {
		row := make([]float64, nc)
		if err := kern.relaxBack(ctx, sweepWorkers, m.exec[i+1], h[i+1], row, scr); err != nil {
			sweep.End(obs.Int("stages", int64(p.Stages)), obs.Int("configs", int64(nc)),
				obs.String("kernel", kern.name()), obs.Bool("ok", false))
			return nil, err
		}
		h[i] = row
	}
	sweep.End(obs.Int("stages", int64(p.Stages)), obs.Int("configs", int64(nc)),
		obs.String("kernel", kern.name()), obs.Bool("ok", true))

	frontier := &pathHeap{}
	for c := 0; c < nc; c++ {
		changes := int32(0)
		if p.Policy == CountAll && configs[c] != p.Initial {
			changes = 1
		}
		if opts.Prune && int(changes) > p.K {
			continue
		}
		g := m.initTrans[c] + m.exec[0][c]
		heap.Push(frontier, &pathNode{stage: 0, cfg: int32(c), changes: changes, g: g, f: g + h[0][c]})
	}

	res := &RankingResult{}
	// The enumeration emits one span per rankingCtxCheckInterval frontier
	// pops — batching keeps the trace proportional to work done, not to
	// node count — with the running totals attached to each batch.
	batch := p.Tracer.Start(SpanRankingExpand)
	batchStart := 0
	endBatch := func() {
		batch.End(obs.Int("expansions", int64(res.Expansions-batchStart)),
			obs.Int("paths_ranked", int64(res.PathsRanked)),
			obs.Int("frontier", int64(frontier.Len())))
	}
	defer endBatch()
	for frontier.Len() > 0 {
		if res.Expansions >= budget {
			res.Exhausted = true
			return res, nil
		}
		if res.Expansions%rankingCtxCheckInterval == 0 {
			if res.Expansions != batchStart {
				endBatch()
				batch = p.Tracer.Start(SpanRankingExpand)
				batchStart = res.Expansions
			}
			if err := ctxErr(ctx); err != nil {
				return nil, err
			}
		}
		node := heap.Pop(frontier).(*pathNode)
		res.Expansions++
		if node.stage == p.Stages-1 {
			res.PathsRanked++
			if int(node.changes) <= p.K {
				designs := make([]Config, p.Stages)
				for n := node; n != nil; n = n.parent {
					designs[n.stage] = configs[n.cfg]
				}
				res.Solution = p.NewSolution(designs)
				return res, nil
			}
			continue
		}
		next := node.stage + 1
		for c := 0; c < nc; c++ {
			changes := node.changes
			if int32(c) != node.cfg {
				changes++
			}
			if opts.Prune && int(changes) > p.K {
				continue
			}
			g := node.g + kern.transCost(int(node.cfg), c) + m.exec[next][c]
			heap.Push(frontier, &pathNode{
				stage: next, cfg: int32(c), changes: changes,
				g: g, f: g + h[next][c], parent: node,
			})
		}
	}
	return nil, fmt.Errorf("core: ranking exhausted the path space without a feasible design (K=%d)", p.K)
}

// SolveRankAndMerge combines the two techniques the way §5 suggests:
// rank paths within a budget; if a feasible path appears it is optimal
// and returned directly, otherwise the lowest-cost complete path seen is
// used as the initial sequence for sequential merging (falling back to
// the unconstrained optimum when the budget produced no complete path).
func SolveRankAndMerge(ctx context.Context, p *Problem, opts RankingOptions) (*Solution, error) {
	res, err := SolveRanking(ctx, p, opts)
	if err == nil && res.Solution != nil {
		return res.Solution, nil
	}
	if err != nil {
		return nil, err
	}
	// Budget exhausted: merge from the unconstrained optimum, which is
	// the first path the ranking would have produced anyway.
	sol, _, err := SolveMergeFromUnconstrained(ctx, p)
	return sol, err
}
