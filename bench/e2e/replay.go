package main

import (
	"context"
	"math"
	"time"

	"dyndesign/internal/advisor"
	"dyndesign/internal/core"
)

// replay_engine geometry.
const (
	replayK = 2
	// replayRecommends is how often a round repeats the k = 2
	// recommendation, so that its median has samples; each starts from a
	// fresh memo and solve cache.
	replayRecommends = 31
	// replayPagesTolerance bounds |measured − estimated| ÷ estimated.
	replayPagesTolerance = 0.10
)

// runReplay measures replay_engine: rounds of recommend (k = 2 and
// unconstrained, both ending in the empty design) and advisor.Replay of
// each design sequence on the live table, k = 2 first. The engine
// executes for real: heap scans, index seeks, index builds and drops at
// the change points, index maintenance on the writes.
func runReplay(e *env, r *result) error {
	var recommendMS []float64
	var replayWall time.Duration
	replayed := 0
	peak, worstPages := 0.0, 0.0
	round := 0
	err := runRounds(e.cfg.seconds, func() error {
		trace, err := e.take(60 * replayBlock(e.cfg.seconds))
		if err != nil {
			return err
		}
		round++
		w := toWorkload("replay", trace)
		empty := core.Config(0)
		for _, k := range []int{replayK, core.Unconstrained} {
			opts := advisor.Options{K: k, Policy: core.FreeEndpoints, Final: &empty}
			var rec *advisor.Recommendation
			n := 1
			if k == replayK {
				n = replayRecommends
			}
			for i := 0; i < n; i++ {
				r.op(1)
				t0 := time.Now()
				rec, err = e.adv.RecommendContext(context.Background(), w, opts)
				d := time.Since(t0)
				if !r.must(err, "recommend") {
					return nil
				}
				if k == replayK {
					recommendMS = append(recommendMS, float64(d)/1e6)
				}
			}
			checkSolution(r, rec)
			r.op(1)
			rep, err := advisor.Replay(e.db, w, rec, rec.PerStatement())
			if !r.must(err, "Replay") {
				return nil
			}
			replayWall += rep.Wall
			replayed += rep.Statements
			peak = max(peak, float64(rep.Statements)/rep.Wall.Seconds())
			off := math.Abs(float64(rep.TotalPages())-rec.Solution.Cost) / rec.Solution.Cost
			worstPages = max(worstPages, off)
			r.check(off <= replayPagesTolerance, "k=%d replay measured %d pages, the estimate was %.0f (%.1f%% apart)", k, rep.TotalPages(), rec.Solution.Cost, 100*off)
			if k == replayK {
				r.check(rep.Changes <= replayK+2, "k=%d replay applied %d transitions", replayK, rep.Changes)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.set("peak_stmts_per_s", peak, 2*round)
	r.set("recommend_min_ms", fastest(recommendMS), len(recommendMS))
	r.set("replay_stmts_per_s", float64(replayed)/replayWall.Seconds(), replayed)
	r.set("replay_recommend_p50_ms", median(recommendMS), len(recommendMS))
	r.set("replay_pages_vs_estimate", worstPages, 2*round)
	r.set("peak_rss_mb", vmHWMMB("self"), 0)
	return nil
}
