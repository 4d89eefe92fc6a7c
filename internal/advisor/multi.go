package advisor

import (
	"context"
	"fmt"

	"dyndesign/internal/core"
	"dyndesign/internal/workload"
)

// The paper (§2) notes that instead of one representative trace, "one
// could require that a set of representative sequences be given". This
// file implements that formulation: RecommendMulti optimizes one design
// sequence against the *average* execution cost over several aligned
// traces, so the result reflects what is common to the traces rather
// than the noise of any one of them.

// averagedModel is a core.CostModel whose EXEC term is the mean over the
// per-trace what-if models. TRANS and SIZE are trace-independent (they
// depend only on the physical structures), so they come from the first
// model.
type averagedModel struct {
	models []core.CostModel
}

func (m *averagedModel) Exec(stage int, c core.Config) float64 {
	total := 0.0
	for _, sub := range m.models {
		total += sub.Exec(stage, c)
	}
	return total / float64(len(m.models))
}

func (m *averagedModel) Trans(from, to core.Config) float64 {
	return m.models[0].Trans(from, to)
}

func (m *averagedModel) Size(c core.Config) float64 {
	return m.models[0].Size(c)
}

// TakeErr implements core.FallibleModel: the first failure recorded by
// any fallible sub-model (all are drained).
func (m *averagedModel) TakeErr() error {
	var first error
	for _, sub := range m.models {
		if err := takeModelErr(sub); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// costStats implements statsProvider by summing over the per-trace
// models (sub-models that expose no stats contribute zero).
func (m *averagedModel) costStats() CostStats {
	var total CostStats
	for _, sub := range m.models {
		if sp, ok := sub.(statsProvider); ok {
			total = total.add(sp.costStats())
		}
	}
	return total
}

// RecommendMulti recommends one design sequence for a set of
// representative traces: the expected-cost variant of the constrained
// problem. All traces must have the same length and segment identically;
// stage i of the optimization covers statement i of every trace. The
// returned recommendation is annotated with the first trace (for block
// structure and rendering); its Solution.Cost is the mean cost across
// traces.
func (a *Advisor) RecommendMulti(traces []*workload.Workload, opts Options) (*Recommendation, error) {
	return a.RecommendMultiContext(context.Background(), traces, opts)
}

// RecommendMultiContext is RecommendMulti with cooperative
// cancellation.
func (a *Advisor) RecommendMultiContext(ctx context.Context, traces []*workload.Workload, opts Options) (*Recommendation, error) {
	if len(traces) == 0 {
		return nil, fmt.Errorf("advisor: no traces given")
	}
	if len(traces) == 1 {
		return a.RecommendContext(ctx, traces[0], opts)
	}
	first, segs, err := a.problem(ctx, traces[0], opts)
	if err != nil {
		return nil, err
	}
	avg := &averagedModel{models: []core.CostModel{first.Model}}
	for _, tr := range traces[1:] {
		if tr.Len() != traces[0].Len() {
			return nil, fmt.Errorf("advisor: trace %q has %d statements, %q has %d",
				tr.Name, tr.Len(), traces[0].Name, traces[0].Len())
		}
		p, _, err := a.problem(ctx, tr, opts)
		if err != nil {
			return nil, err
		}
		if p.Stages != first.Stages {
			return nil, fmt.Errorf("advisor: trace %q segments into %d stages, %q into %d",
				tr.Name, p.Stages, traces[0].Name, first.Stages)
		}
		avg.models = append(avg.models, p.Model)
	}
	combined := *first
	combined.Model = avg
	return a.solve(ctx, &combined, segs, traces[0], opts)
}

// EvaluateOn computes the what-if cost of this recommendation's design
// sequence applied to a different workload of the same length — the
// generalization check of the paper's §6.3, without executing anything.
func (a *Advisor) EvaluateOn(rec *Recommendation, w *workload.Workload, opts Options) (float64, error) {
	if w.Len() != rec.Workload.Len() {
		return 0, fmt.Errorf("advisor: workload has %d statements, recommendation covers %d",
			w.Len(), rec.Workload.Len())
	}
	opts.SegmentSize = 1
	p, _, err := a.Problem(w, opts)
	if err != nil {
		return 0, err
	}
	designs := rec.PerStatement()
	return p.SequenceCost(designs), nil
}
