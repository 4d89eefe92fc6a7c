// Package tuner answers the paper's first open question — "how to choose
// an appropriate change constraint (k)" (§8) — with two procedures:
//
//   - Cross-validation over representative traces: for each k, recommend
//     on one trace and evaluate the design (by what-if cost) on the held
//     out traces; pick the k with the best mean held-out cost. This
//     directly operationalizes the paper's notion that the input is a
//     *representative* of a workload process.
//
//   - The elbow rule on the quality-vs-k curve for the single-trace case
//     (ElbowK): pick the smallest k whose optimal cost captures a given
//     fraction of the improvement from the static design (k = 0) to the
//     unconstrained optimum.
//
// Both read a k-curve that must not rise as k grows, which only an exact
// strategy guarantees: a heuristic's (greedyseq, merge) cost can rise
// from one k to the next, so that the capture fraction measures nothing
// and the held-out minimum rewards the heuristic's luck. Both therefore
// check every recommendation they read and return an error on the first
// that no exact solve produced: one a heuristic strategy answered (an
// opts.Strategy that core.Heuristic names, or a heuristic or
// last-known-good rung answering for an exact one under opts.Fallback),
// or one whose solver stopped with a positive gap (the partitioned
// solver's beam-pruned search).
package tuner

import (
	"context"
	"fmt"
	"math"

	"dyndesign/internal/advisor"
	"dyndesign/internal/core"
	"dyndesign/internal/workload"
)

// KPoint is one point of a k-selection curve.
type KPoint struct {
	K int
	// TrainCost is the optimal cost on the training trace at this k.
	TrainCost float64
	// HoldoutCost is the mean what-if cost of the k-design on the
	// held-out traces (NaN for the elbow rule, which has none).
	HoldoutCost float64
}

// KChoice reports a k selection.
type KChoice struct {
	K      int
	Method string // "cross-validation" or "elbow"
	Curve  []KPoint
}

// CrossValidateK chooses k by leave-one-out style validation: the design
// is recommended on traces[0] for each k in [0, maxK] and costed on each
// remaining trace; the k minimizing the mean held-out cost wins. All
// traces must have the same length. At least two traces are required —
// with one, use ElbowK.
func CrossValidateK(ctx context.Context, adv *advisor.Advisor, traces []*workload.Workload, opts advisor.Options, maxK int) (*KChoice, error) {
	if len(traces) < 2 {
		return nil, fmt.Errorf("tuner: cross-validation needs at least 2 traces, got %d", len(traces))
	}
	if maxK < 0 {
		return nil, fmt.Errorf("tuner: negative maxK")
	}
	choice := &KChoice{Method: "cross-validation", K: 0}
	best := math.Inf(1)
	for k := 0; k <= maxK; k++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		o := opts
		o.K = k
		rec, err := adv.RecommendContext(ctx, traces[0], o)
		if err == nil {
			err = exactAnswer(rec, k)
		}
		if err != nil {
			return nil, err
		}
		var held float64
		for _, tr := range traces[1:] {
			c, err := adv.EvaluateOn(rec, tr, o)
			if err != nil {
				return nil, err
			}
			held += c
		}
		held /= float64(len(traces) - 1)
		choice.Curve = append(choice.Curve, KPoint{K: k, TrainCost: rec.Solution.Cost, HoldoutCost: held})
		if held < best {
			best = held
			choice.K = k
		}
	}
	return choice, nil
}

// exactAnswer refuses a recommendation that no exact solve produced (see
// the package doc).
func exactAnswer(rec *advisor.Recommendation, k int) error {
	if core.Heuristic(rec.Rung) || rec.Rung == core.RungLastKnownGood || rec.Gap > 0 {
		return fmt.Errorf("tuner: k=%d was answered by %q with gap %g, not by an exact solve: its k-curve may rise with k; choose k with an exact strategy", k, rec.Rung, rec.Gap)
	}
	return nil
}

// DefaultCaptureFraction is the elbow rule's default: pick the smallest
// k that captures this fraction of the improvement attainable between
// the static design (k = 0) and the unconstrained optimum.
const DefaultCaptureFraction = 0.6

// ElbowK chooses k from a single trace by the capture-fraction rule: the
// smallest k whose optimal cost captures at least captureFrac of the
// total improvement cost(0) − cost(unconstrained). A simple marginal-
// gain cutoff would stall on the plateaus this curve always has (useful
// changes come in pairs — switch away and back — so odd k often buys
// nothing over k−1); capturing a fraction of the total is plateau-proof.
// captureFrac defaults to DefaultCaptureFraction when <= 0; maxK caps
// the search (the unconstrained optimum's change count also caps it
// naturally).
func ElbowK(ctx context.Context, adv *advisor.Advisor, trace *workload.Workload, opts advisor.Options, maxK int, captureFrac float64) (*KChoice, error) {
	if captureFrac <= 0 {
		captureFrac = DefaultCaptureFraction
	}
	if captureFrac > 1 {
		return nil, fmt.Errorf("tuner: capture fraction %f > 1", captureFrac)
	}
	o := opts
	o.K = core.Unconstrained
	unc, err := adv.RecommendContext(ctx, trace, o)
	if err == nil {
		err = exactAnswer(unc, o.K)
	}
	if err != nil {
		return nil, err
	}
	limit := unc.Solution.Changes
	if maxK >= 0 && maxK < limit {
		limit = maxK
	}
	choice := &KChoice{Method: "elbow"}
	var staticCost float64
	chosen := false
	for k := 0; k <= limit; k++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		o.K = k
		rec, err := adv.RecommendContext(ctx, trace, o)
		if err == nil {
			err = exactAnswer(rec, k)
		}
		if err != nil {
			return nil, err
		}
		cost := rec.Solution.Cost
		choice.Curve = append(choice.Curve, KPoint{K: k, TrainCost: cost, HoldoutCost: math.NaN()})
		if k == 0 {
			staticCost = cost
		}
		attainable := staticCost - unc.Solution.Cost
		if !chosen && (attainable <= 0 || staticCost-cost >= captureFrac*attainable) {
			choice.K = k
			chosen = true
		}
	}
	if !chosen {
		choice.K = limit
	}
	return choice, nil
}
