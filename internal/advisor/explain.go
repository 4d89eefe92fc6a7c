package advisor

import (
	"context"
	"fmt"

	"dyndesign/internal/core"
	"dyndesign/internal/explain"
	"dyndesign/internal/obs"
)

// ExplainOptions configures the decision-provenance layer attached to a
// recommendation: the counterfactual k-sweep width and the overfitting
// audit's size and seed. The zero value asks for sensible defaults
// (sweep to k+2, 5 audit trials from seed 1). Every transition credits
// its three most-helped stages.
type ExplainOptions struct {
	// KSweepDelta sweeps the cost-of-constraint curve to k + KSweepDelta
	// (default 2; negative disables the sweep).
	KSweepDelta int
	// AuditTrials is the number of perturbed trace replays in the
	// overfitting audit (default 5; negative disables the audit).
	AuditTrials int
	// AuditSeed derives the per-trial resampling seeds (default 1).
	AuditSeed int64
}

func (o ExplainOptions) withDefaults() ExplainOptions {
	if o.KSweepDelta == 0 {
		o.KSweepDelta = 2
	}
	if o.AuditTrials == 0 {
		o.AuditTrials = 5
	}
	if o.AuditSeed == 0 {
		o.AuditSeed = 1
	}
	return o
}

// sqlExcerptLen bounds the statement excerpt shown per stage impact.
const sqlExcerptLen = 48

// Explain builds the decision provenance of a solved recommendation:
// per-transition cost attribution, the counterfactual k-sweep, and the
// overfitting audit replaying the design against block-bootstrap
// resamples of the trace. The explanation is also stored on the
// recommendation. The audit re-solves perturbed problems under the
// recommendation's own options — a caller-retained Memo serves every
// resampled segment it has seen — and still dominates the explain cost.
func (a *Advisor) Explain(ctx context.Context, rec *Recommendation, opts ExplainOptions) (_ *explain.Explanation, err error) {
	if rec == nil || rec.Solution == nil {
		return nil, fmt.Errorf("advisor: no solved recommendation to explain")
	}
	sp := rec.opts.Tracer.Start("advisor.explain")
	defer func() { sp.End(obs.Bool("ok", err == nil)) }()
	opts = opts.withDefaults()
	eopts := explain.Options{
		StructureNames: rec.StructureNames,
		StageStatement: func(stage int) int { return rec.Segments[stage].Start },
		StageSQL: func(stage int) string {
			seg := rec.Segments[stage]
			if len(seg.Statements) == 0 {
				return ""
			}
			sql := seg.Statements[0].SQL
			if len(sql) > sqlExcerptLen {
				sql = sql[:sqlExcerptLen-3] + "..."
			}
			return sql
		},
		KSweepDelta: opts.KSweepDelta,
	}
	if opts.AuditTrials > 0 {
		eopts.AuditTrials = opts.AuditTrials
		eopts.AuditSeed = opts.AuditSeed
		eopts.Perturb = a.perturb(ctx, rec)
	}
	e, err := explain.Build(ctx, rec.Problem, rec.Solution, eopts)
	if err != nil {
		return nil, err
	}
	e.Strategy = string(rec.Rung)
	rec.Explanation = e
	return e, nil
}

// perturb builds the audit's perturbation closure: trial seeds resample
// the workload block-wise (phase structure preserved) and the problem
// is re-assembled exactly as the original was — same design space,
// segmentation, bounds, and policy, and the caller's retained Memo and
// Cache when rec.opts carries them. The re-assembly compiles under ctx.
func (a *Advisor) perturb(ctx context.Context, rec *Recommendation) explain.PerturbFunc {
	return func(trial int, seed int64) (*core.Problem, error) {
		w := rec.Workload.Resample(seed)
		p, _, err := a.problem(ctx, w, rec.opts)
		if err != nil {
			return nil, fmt.Errorf("rebuilding problem for resample seed %d: %w", seed, err)
		}
		return p, nil
	}
}
