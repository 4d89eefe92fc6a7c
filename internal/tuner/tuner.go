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
// Both read one k-curve: core.SweepK over the training trace's problem,
// built once, whose one layered run holds the optimum for every k. The
// curve never rises with k, which only an exact solve guarantees: a
// heuristic's (greedyseq, merge) cost can rise from one k to the next,
// so that the capture fraction measures nothing and the held-out minimum
// rewards the heuristic's luck. Both procedures therefore refuse an
// opts.Strategy that core.Heuristic names; the exact strategies
// (partitioned included) are accepted, and the curve is computed on the
// full lattice whichever is named. They also refuse opts.Fallback,
// Timeout and MaxWhatIfCalls, which bound or replace single solves and
// mean nothing for one run: ctx is its only bound. opts.K and
// LastKnownGood are not read.
package tuner

import (
	"context"
	"fmt"
	"math"

	"dyndesign/internal/advisor"
	"dyndesign/internal/core"
	"dyndesign/internal/workload"
)

// KChoice reports a k selection.
type KChoice struct {
	K      int
	Method string // "cross-validation" or "elbow"
	// Curve is the optimal cost on the training trace at each k from 0.
	Curve []core.KPoint
	// Holdout[k] is the mean what-if cost of Curve[k]'s design on the
	// held-out traces; nil for the elbow rule, which has none.
	Holdout []float64
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
	curve, segs, err := trainCurve(ctx, adv, traces[0], opts, maxK)
	if err != nil {
		return nil, err
	}
	// Each held-out trace is costed per statement, whatever the
	// training segmentation (as Advisor.EvaluateOn does).
	designs := make([][]core.Config, len(curve))
	for k, pt := range curve {
		for i, seg := range segs {
			for range seg.Statements {
				designs[k] = append(designs[k], pt.Designs[i])
			}
		}
	}
	held := make([]float64, len(curve))
	opts.K, opts.SegmentSize = core.Unconstrained, 1
	for _, tr := range traces[1:] {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if tr.Len() != traces[0].Len() {
			return nil, fmt.Errorf("tuner: trace %q has %d statements, %q has %d",
				tr.Name, tr.Len(), traces[0].Name, traces[0].Len())
		}
		p, _, err := adv.Problem(tr, opts)
		if err != nil {
			return nil, err
		}
		for k := range held {
			held[k] += p.SequenceCost(designs[k])
		}
	}
	choice := &KChoice{Method: "cross-validation", Curve: curve, Holdout: held}
	best := math.Inf(1)
	for k := range held {
		held[k] /= float64(len(traces) - 1)
		if held[k] < best {
			best = held[k]
			choice.K = k
		}
	}
	return choice, nil
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
// captureFrac defaults to DefaultCaptureFraction when <= 0 and must then
// lie in (0, 1]; maxK caps the search (the unconstrained optimum's
// change count also caps it naturally).
func ElbowK(ctx context.Context, adv *advisor.Advisor, trace *workload.Workload, opts advisor.Options, maxK int, captureFrac float64) (*KChoice, error) {
	if captureFrac <= 0 {
		captureFrac = DefaultCaptureFraction
	}
	if !(captureFrac > 0 && captureFrac <= 1) {
		return nil, fmt.Errorf("tuner: capture fraction %f is not in (0, 1]", captureFrac)
	}
	curve, _, err := trainCurve(ctx, adv, trace, opts, core.Unconstrained)
	if err != nil {
		return nil, err
	}
	// The curve runs to the unconstrained optimum's change count: its
	// last point is that optimum.
	attainable := curve[0].Cost - curve[len(curve)-1].Cost
	if maxK >= 0 && maxK < len(curve)-1 {
		curve = curve[:maxK+1]
	}
	choice := &KChoice{Method: "elbow", K: len(curve) - 1, Curve: curve}
	for _, pt := range curve {
		if attainable <= 0 || curve[0].Cost-pt.Cost >= captureFrac*attainable {
			choice.K = pt.K
			break
		}
	}
	return choice, nil
}

// trainCurve builds trace's problem once and sweeps it to maxK (or to
// the unconstrained optimum), returning the curve and the problem's
// segments. It refuses the options the package doc names and an
// infeasible point.
func trainCurve(ctx context.Context, adv *advisor.Advisor, trace *workload.Workload, opts advisor.Options, maxK int) ([]core.KPoint, []workload.Segment, error) {
	if _, err := core.ParseStrategy(string(opts.Strategy)); err != nil {
		return nil, nil, err
	}
	if core.Heuristic(opts.Strategy) || opts.Fallback || opts.Timeout > 0 || opts.MaxWhatIfCalls > 0 {
		return nil, nil, fmt.Errorf("tuner: k is read off one exact k-curve run whose only bound is ctx: a heuristic strategy (%q), Fallback, Timeout and MaxWhatIfCalls are refused", opts.Strategy)
	}
	opts.K = core.Unconstrained
	p, segs, err := adv.Problem(trace, opts)
	if err != nil {
		return nil, nil, err
	}
	curve, err := core.SweepK(ctx, p, maxK)
	if fm, ok := p.Model.(core.FallibleModel); ok && err == nil {
		err = fm.TakeErr()
	}
	if err != nil {
		return nil, nil, err
	}
	if !curve[0].Feasible { // feasibility nests in k
		return nil, nil, fmt.Errorf("tuner: no design with at most 0 changes exists")
	}
	return curve, segs, nil
}
