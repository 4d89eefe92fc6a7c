package explain

import (
	"sort"

	"dyndesign/internal/core"
)

// topStages is how many most-helped stages each transition lists.
const topStages = 3

// attribute explains every design change of the solution: the interior
// changes between runs, the initial installation when the first design
// differs from C0, and the final teardown when the problem pins the
// endpoint. All quantities come from the problem's cost model over the
// already-solved sequence — no re-solving.
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
		if opts.StageInfo != nil {
			// The teardown happens after the last stage; report the
			// statement index one past the last stage's first statement
			// span by probing the final stage.
			stmt, _ := opts.StageInfo(p.Stages - 1)
			t.Statement = stmt
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
	if opts.StageInfo != nil {
		t.Statement, _ = opts.StageInfo(run.Start)
	}
	impacts := make([]StageImpact, 0, run.Length)
	for i := run.Start; i < run.Start+run.Length; i++ {
		under := p.Model.Exec(i, to)
		t.RunExecCost += under
		delta := p.Model.Exec(i, from) - under
		t.ExecSaved += delta
		im := StageImpact{Stage: i, Statement: -1, Delta: delta}
		if opts.StageInfo != nil {
			im.Statement, im.SQL = opts.StageInfo(i)
		}
		impacts = append(impacts, im)
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
	sort.SliceStable(impacts, func(a, b int) bool {
		if impacts[a].Delta != impacts[b].Delta {
			return impacts[a].Delta > impacts[b].Delta
		}
		return impacts[a].Stage < impacts[b].Stage
	})
	if len(impacts) > topStages {
		impacts = impacts[:topStages]
	}
	t.TopStages = impacts
	return t
}
