package explain

import (
	"context"

	"dyndesign/internal/core"
)

// buildKSweep computes the counterfactual cost-of-constraint curve
// around the solved bound: cost(k') for k' in [0, base+KSweepDelta],
// where base is the problem's K (or the solution's change count when
// unconstrained). One layered DP run answers every point — the layers
// the k-aware solver normally discards (core.SweepK). No sequence
// changes more often than it has stages, so the curve is flat from
// there on under both policies and a larger base is clamped to the stage
// count: the sweep's length follows the problem, never a huge -k.
func buildKSweep(ctx context.Context, p *core.Problem, sol *core.Solution, opts Options) ([]KPoint, error) {
	base := p.K
	if base == core.Unconstrained {
		base = sol.Changes
	}
	base = min(base, p.Stages)
	curve, err := core.SweepK(ctx, p, base+opts.KSweepDelta)
	if err != nil {
		return nil, err
	}
	out := make([]KPoint, len(curve))
	for i, pt := range curve {
		out[i] = KPoint{
			K:        pt.K,
			Feasible: pt.Feasible,
			Cost:     pt.Cost, ExecCost: pt.ExecCost, TransCost: pt.TransCost,
			Changes: pt.Changes,
		}
		if i > 0 && pt.Feasible && curve[i-1].Feasible {
			out[i].Marginal = curve[i-1].Cost - pt.Cost
		}
	}
	return out, nil
}
