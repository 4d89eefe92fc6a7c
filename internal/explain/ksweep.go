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
// there on under both policies and its top is clamped to the stage
// count: the sweep's length follows the problem, never a huge -k or
// -ksweep-delta.
func buildKSweep(ctx context.Context, p *core.Problem, sol *core.Solution, opts Options) ([]core.KPoint, error) {
	base := p.K
	if base == core.Unconstrained {
		base = sol.Changes
	}
	top := min(base, p.Stages) + min(opts.KSweepDelta, p.Stages)
	return core.SweepK(ctx, p, min(top, p.Stages))
}
