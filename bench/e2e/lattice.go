package main

import (
	"context"
	"slices"
	"time"

	"dyndesign/internal/advisor"
	"dyndesign/internal/core"
	"dyndesign/internal/experiments"
	"dyndesign/internal/workload"
)

// solve_lattice geometry: change bound and slides per cold solve in a
// round.
const (
	latticeK       = 4
	slidesPerRound = 4
	// The brute-force sub-instance: SolveBruteForce refuses more than
	// 2·10⁶ sequences, so four structures one at a time (5
	// configurations) allow 8 stages (5⁸ ≈ 3.9·10⁵), not 12.
	bruteStages      = 8
	bruteStructures  = 4
	bruteSegmentSize = 50
)

// latticeOptions are the options of every solve_lattice solve: k = 4
// over the full 2¹⁰ lattice, 50 statements per stage, all cores.
func latticeOptions() advisor.Options {
	return advisor.Options{K: latticeK, SegmentSize: latticeSegment, Parallelism: 0}
}

// attributionOnly asks Explain for what the service attaches to every
// window: the per-transition attribution, without the k-sweep and the
// audit (negative disables them), which re-solve the problem many times.
var attributionOnly = advisor.ExplainOptions{KSweepDelta: -1, AuditTrials: -1}

// latticeOp is one operation: RecommendContext plus the attribution
// half of Explain, as the service runs them for every window.
func latticeOp(adv *advisor.Advisor, w *workload.Workload, opts advisor.Options) (*advisor.Recommendation, time.Duration, error) {
	t0 := time.Now()
	rec, err := adv.RecommendContext(context.Background(), w, opts)
	if err == nil {
		_, err = adv.Explain(context.Background(), rec, attributionOnly)
	}
	return rec, time.Since(t0), err
}

// runLattice measures solve_lattice: rounds of one cold operation on the
// first window (fresh memo and solve cache) and slidesPerRound slide
// operations that each advance a second, retained-state window by one
// segment.
func runLattice(e *env, r *result) error {
	sz := e.cfg.size
	trace, err := e.take(sz.latticeWindow + 2*sz.latticeReadsPerLoad)
	if err != nil {
		return err
	}
	full := toWorkload("lattice", trace)
	window := func(offset int) *workload.Workload {
		return full.Slice(offset, offset+sz.latticeWindow)
	}
	first := window(0)

	// The retained state of the sliding solver. Its first operation
	// fills the memo; it is an attempted operation but not a sample.
	slideOpts := latticeOptions()
	slideOpts.Memo = advisor.NewMemo(0)
	slideOpts.Cache = core.NewSolveCache()
	offset := 0
	r.op(1)
	if rec, _, err := latticeOp(e.adv, first, slideOpts); r.must(err, "memo-filling operation") {
		checkSolution(r, rec)
	}

	var coldMS, slideMS []float64
	var coldRec *advisor.Recommendation
	err = runRounds(e.cfg.seconds, func() error {
		opts := latticeOptions()
		opts.Memo = advisor.NewMemo(0)
		opts.Cache = core.NewSolveCache()
		r.op(1)
		rec, d, err := latticeOp(e.adv, first, opts)
		if r.must(err, "cold operation") {
			coldMS = append(coldMS, float64(d)/1e6)
			checkSolution(r, rec)
			if coldRec != nil {
				r.check(rec.Solution.Cost == coldRec.Solution.Cost, "cold operations disagree: cost %v then %v", coldRec.Solution.Cost, rec.Solution.Cost)
			}
			coldRec = rec
		}
		for i := 0; i < slidesPerRound; i++ {
			if offset+latticeSegment+sz.latticeWindow > len(trace) {
				offset = 0 // a run long enough to exhaust the trace starts over
			}
			offset += latticeSegment
			r.op(1)
			rec, d, err := latticeOp(e.adv, window(offset), slideOpts)
			if r.must(err, "slide operation") {
				slideMS = append(slideMS, float64(d)/1e6)
				checkSolution(r, rec)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Statements newly absorbed per second of re-solving: each slide
	// takes one segment into the window.
	r.set("peak_stmts_per_s", latticeSegment/(fastest(slideMS)/1e3), len(slideMS))
	r.set("recommend_min_ms", fastest(coldMS), len(coldMS))
	r.set("solve_cold_p50_ms", median(coldMS), len(coldMS))
	r.set("resolve_slide_p50_ms", median(slideMS), len(slideMS))

	if coldRec != nil {
		latticeChecks(e, r, first, coldRec)
		bruteForceCheck(e, r, trace)
	}
	r.set("peak_rss_mb", vmHWMMB("self"), 0)
	return nil
}

// checkSolution runs the library's own validity check on an answer.
func checkSolution(r *result, rec *advisor.Recommendation) {
	err := rec.Problem.CheckSolution(rec.Solution)
	r.check(err == nil, "CheckSolution: %v", err)
}

// latticeChecks is the untimed part of the correctness gate: the serial
// path gives the same designs, the cost does not rise as k grows, the
// change bound binds.
func latticeChecks(e *env, r *result, first *workload.Workload, cold *advisor.Recommendation) {
	r.check(cold.Solution.Changes >= 1, "the optimum makes no design change: the workload does not exercise the change bound")

	serial := latticeOptions()
	serial.Parallelism = 1
	r.op(1)
	if rec, err := e.adv.Recommend(first, serial); r.must(err, "Parallelism 1 solve") {
		r.check(slices.Equal(rec.Solution.Designs, cold.Solution.Designs), "Parallelism 1 gives other designs than Parallelism 0")
	}

	prev := 0.0
	for i, k := range []int{0, 2, latticeK, core.Unconstrained} {
		cost := cold.Solution.Cost
		if k != latticeK {
			opts := latticeOptions()
			opts.K = k
			r.op(1)
			rec, err := e.adv.Recommend(first, opts)
			if !r.must(err, "k-sweep solve") {
				continue
			}
			checkSolution(r, rec)
			cost = rec.Solution.Cost
		}
		if i > 0 {
			r.check(cost <= prev, "cost rises from %v to %v as k grows to %d", prev, cost, k)
		}
		prev = cost
	}
}

// bruteForceCheck solves a 4-structure, 8-stage sub-instance with the
// k-aware solver and by exhaustive enumeration; the costs must agree.
func bruteForceCheck(e *env, r *result, trace []stmt) {
	space := experiments.PaperSpace()
	space.Structures = space.Structures[:bruteStructures]
	space.Configs = advisor.SingleIndexConfigs(bruteStructures)
	adv, err := advisor.New(e.db, space)
	r.op(1)
	if !r.must(err, "brute-force sub-instance advisor") {
		return
	}
	// The statements around the trace's first mix shift, so that the
	// sub-instance has a reason to change design.
	lo := paperBlock - bruteStages/2*bruteSegmentSize
	sub := toWorkload("brute", trace[lo:lo+bruteStages*bruteSegmentSize])
	rec, err := adv.Recommend(sub, advisor.Options{K: 1, SegmentSize: bruteSegmentSize})
	r.op(1)
	if !r.must(err, "sub-instance solve") {
		return
	}
	brute, err := core.SolveBruteForce(rec.Problem)
	r.op(1)
	if !r.must(err, "SolveBruteForce") {
		return
	}
	r.check(brute.Cost == rec.Solution.Cost, "k-aware cost %v != brute-force cost %v on the sub-instance", rec.Solution.Cost, brute.Cost)
}
