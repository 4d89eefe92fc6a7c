package explain

import (
	"slices"

	"dyndesign/internal/core"
)

// topStages is how many most-helped stages each transition lists.
const topStages = 3

// attribute explains every design change of the solution: the interior
// changes between runs, the initial installation when the first design
// differs from C0, and the final teardown when the problem pins the
// endpoint. All quantities are the problem's cost-model values over the
// already-solved sequence, EXEC read through its cost tables — no
// re-solving.
func attribute(p *core.Problem, sol *core.Solution, opts Options) []Transition {
	runs := sol.Runs()
	var out []Transition
	prev := p.Initial
	for r, run := range runs {
		if run.Config == prev {
			continue // the first run can extend C0; later runs always differ
		}
		// next is the configuration after this run ends — the following
		// run's, or the pinned final one — needed to price what removing
		// the change would do to the outgoing transition.
		var next *core.Config
		if r+1 < len(runs) {
			next = &runs[r+1].Config
		} else if p.Final != nil {
			next = p.Final
		}
		out = append(out, transitionFor(p, prev, run, next, opts))
		prev = run.Config
	}
	if p.Final != nil && prev != *p.Final {
		t := Transition{
			Stage:     p.Stages,
			Statement: -1,
			From:      prev.Format(opts.StructureNames),
			To:        p.Final.Format(opts.StructureNames),
			FromBits:  uint64(prev),
			ToBits:    uint64(*p.Final),
			TransCost: p.Model.Trans(prev, *p.Final),
		}
		if opts.StageStatement != nil {
			// The teardown happens after the last stage; report the
			// statement index one past the last stage's first statement
			// span by probing the final stage.
			t.Statement = opts.StageStatement(p.Stages - 1)
		}
		// Tearing down to a pinned endpoint cannot be removed; its
		// "penalty" is the teardown price itself, reported as 0 margin.
		out = append(out, t)
	}
	return out
}

// transitionFor prices one interior (or initial) design change: the run
// [run.Start, run.Start+run.Length) executes under run.Config instead
// of from, at transition price TRANS(from, run.Config).
func transitionFor(p *core.Problem, from core.Config, run core.Run, next *core.Config, opts Options) Transition {
	to := run.Config
	t := Transition{
		Stage:     run.Start,
		Statement: -1,
		From:      from.Format(opts.StructureNames),
		To:        to.Format(opts.StructureNames),
		FromBits:  uint64(from),
		ToBits:    uint64(to),
		TransCost: p.Model.Trans(from, to),
		RunLength: run.Length,
	}
	if opts.StageStatement != nil {
		t.Statement = opts.StageStatement(run.Start)
	}
	// The run's cells under both designs, read through the problem's cost
	// tables: verbatim model outputs, without a model call per cell.
	under := make([]float64, 2*run.Length)
	before := under[run.Length:]
	under = under[:run.Length]
	p.ExecColumn(run.Start, to, under)
	p.ExecColumn(run.Start, from, before)
	// top keeps the topStages most-helped stages, largest delta first and
	// the earlier stage among equal ones — a stable sort's first
	// topStages, without sorting the run.
	top := make([]StageImpact, 0, topStages+1)
	for k, u := range under {
		t.RunExecCost += u
		delta := before[k] - u
		t.ExecSaved += delta
		at := len(top)
		for at > 0 && delta > top[at-1].Delta {
			at--
		}
		if at < topStages {
			top = slices.Insert(top, at, StageImpact{Stage: run.Start + k, Statement: -1, Delta: delta})
			top = top[:min(len(top), topStages)]
		}
	}
	for k := range top {
		if opts.StageStatement != nil {
			top[k].Statement = opts.StageStatement(top[k].Stage)
		}
		if opts.StageSQL != nil {
			top[k].SQL = opts.StageSQL(top[k].Stage)
		}
	}
	// RemovalPenalty is the merge heuristic's penalty of collapsing this
	// run into its predecessor: run stages execute under from, the
	// incoming transition disappears, and the outgoing transition is
	// rewired from (to -> next) to (from -> next).
	t.RemovalPenalty = t.ExecSaved - t.TransCost
	if next != nil {
		t.RemovalPenalty -= p.Model.Trans(to, *next)
		t.RemovalPenalty += p.Model.Trans(from, *next)
	}
	t.TopStages = top
	return t
}
