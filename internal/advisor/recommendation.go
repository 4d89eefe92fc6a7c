package advisor

import (
	"fmt"
	"io"
	"math"
	"time"

	"dyndesign/internal/calib"
	"dyndesign/internal/catalog"
	"dyndesign/internal/core"
	"dyndesign/internal/explain"
	"dyndesign/internal/workload"
)

// Recommendation is the output of an advisor run: the recommended design
// sequence plus everything needed to inspect, render, and apply it.
type Recommendation struct {
	Table          string
	StructureNames []string
	Structures     []catalog.IndexDef
	Segments       []workload.Segment
	Workload       *workload.Workload
	Problem        *core.Problem
	Solution       *core.Solution
	Strategy       core.Strategy
	Elapsed        time.Duration
	// Stats is the what-if costing instrumentation of this run: call
	// count and the hit rate of its own EXEC row-store lookups. It makes
	// costing-layer speedups observable instead of asserted.
	Stats CostStats
	// Ledger is the solver's instrumentation after the solve: cost-table
	// builds and cache reads, and the robustness counters.
	core.Ledger
	// Rung is the strategy that actually produced the solution: the
	// requested strategy on a clean solve, a lower ladder rung (or
	// core.RungLastKnownGood) when the resilient supervisor degraded.
	Rung core.Strategy
	// Degraded is true when the requested strategy did not answer and a
	// fallback rung did.
	Degraded bool
	// RungReports lists every rung the resilient supervisor attempted,
	// with the failure class and error of each one that did not answer.
	// Empty on the plain (unsupervised) solve path.
	RungReports []core.RungReport
	// Explanation is the decision provenance of the recommendation —
	// per-transition cost attribution, the counterfactual k-sweep, and
	// the overfitting audit. Populated by Advisor.Explain; nil otherwise.
	Explanation *explain.Explanation
	// Calibration is the measured-vs-estimated replay report of this
	// recommendation. Populated by Advisor.Calibrate; nil otherwise.
	Calibration *calib.RunReport

	// opts remembers the options the recommendation was solved under so
	// Explain can re-assemble identically-shaped problems for perturbed
	// traces.
	opts Options
}

// PerStatement expands the per-stage designs to one configuration per
// workload statement.
func (r *Recommendation) PerStatement() []core.Config {
	out := make([]core.Config, 0, r.Workload.Len())
	for i, seg := range r.Segments {
		for range seg.Statements {
			out = append(out, r.Solution.Designs[i])
		}
	}
	return out
}

// DesignAt returns the configuration recommended for statement index i.
func (r *Recommendation) DesignAt(i int) core.Config {
	for s, seg := range r.Segments {
		if i < seg.Start+len(seg.Statements) {
			return r.Solution.Designs[s]
		}
	}
	return r.Solution.Designs[len(r.Solution.Designs)-1]
}

// Step is one design change in a recommendation.
type Step struct {
	// StatementIndex is the workload position before which the change
	// happens; 0 means "before the first statement".
	StatementIndex int
	From, To       core.Config
	// DDL is the SQL to effect the change: drops first, then creates.
	DDL []string
}

// ddlFor builds the DDL statements for a configuration change — the
// ones Replay executes through the same calib.Target.
func (r *Recommendation) ddlFor(from, to core.Config) []string {
	return calib.Target{Structures: r.Structures}.DDL(from, to)
}

// Steps lists every design change, including the initial installation
// (when the first design differs from C0) and the final teardown (when
// the problem constrains the destination).
func (r *Recommendation) Steps() []Step {
	var out []Step
	prev := r.Problem.Initial
	for s, cfg := range r.Solution.Designs {
		if cfg != prev {
			out = append(out, Step{
				StatementIndex: r.Segments[s].Start,
				From:           prev,
				To:             cfg,
				DDL:            r.ddlFor(prev, cfg),
			})
			prev = cfg
		}
	}
	if r.Problem.Final != nil && prev != *r.Problem.Final {
		out = append(out, Step{
			StatementIndex: r.Workload.Len(),
			From:           prev,
			To:             *r.Problem.Final,
			DDL:            r.ddlFor(prev, *r.Problem.Final),
		})
	}
	return out
}

// RenderTimeline writes the design per fixed-size statement block — the
// shape of the paper's Table 2 — for any recommendation. A blockSize <= 0
// defaults to 1/30th of the workload (30 rows, like the paper's table).
// Designs are sampled mid-block, deliberately: with one stage per
// statement the optimal switch point can drift a statement or two around
// a block boundary (the boundary statements are random draws from either
// mix), while the mid-block design is the one that characterizes the
// block.
func (r *Recommendation) RenderTimeline(w io.Writer, blockSize int) {
	n := r.Workload.Len()
	if blockSize <= 0 {
		blockSize = (n + 29) / 30
		if blockSize < 1 {
			blockSize = 1
		}
	}
	fmt.Fprintf(w, "%-16s %-6s %s\n", "statements", "mix", "design")
	for start := 0; start < n; start += blockSize {
		end := start + blockSize
		if end > n {
			end = n
		}
		label := ""
		if len(r.Workload.Labels) == n {
			label = r.Workload.Labels[start]
		}
		mid := start + (end-start)/2
		fmt.Fprintf(w, "%7d-%-8d %-6s %s\n", start+1, end, label,
			r.DesignAt(mid).Format(r.StructureNames))
	}
}

// Render writes a human-readable report.
func (r *Recommendation) Render(w io.Writer) {
	fmt.Fprintf(w, "Recommendation for table %q (strategy %s, %.1f ms)\n",
		r.Table, r.Strategy, float64(r.Elapsed.Microseconds())/1000)
	k := "unconstrained"
	if r.Problem.K != core.Unconstrained {
		k = fmt.Sprintf("%d", r.Problem.K)
	}
	fmt.Fprintf(w, "  stages: %d   candidate configs: %d   k: %s   policy: %s\n",
		r.Problem.Stages, len(r.Problem.Configs), k, r.Problem.Policy)
	fmt.Fprintf(w, "  estimated sequence cost: %.0f pages   changes used: %d\n",
		r.Solution.Cost, r.Solution.Changes)
	if gap := r.Solution.Gap; gap > 0 {
		fmt.Fprintf(w, "  anytime bound: optimum within %.0f pages (gap %.2f%% of cost)\n",
			gap, 100*gap/r.Solution.Cost)
	}
	if r.LatticeOverflows > 0 {
		fmt.Fprintf(w, "  note: %d dense-fallback table build(s) above the 20-bit lattice ceiling (see core.ErrLatticeTooLarge)\n",
			r.LatticeOverflows)
	}
	if r.SeedStagesReused > 0 || r.SeedFullPasses > 0 {
		fmt.Fprintf(w, "  seed pass: %d stages reused from the retained window, %d full passes over it\n",
			r.SeedStagesReused, r.SeedFullPasses)
	}
	fmt.Fprintf(w, "  what-if calls: %d   cache hit rate: %.1f%%   matrix build: %.1f ms (%d builds, %d cached reads)\n",
		r.Stats.WhatIfCalls, 100*r.Stats.HitRate(),
		float64(r.MatrixBuildTime.Microseconds())/1000, r.MatrixBuilds, r.MatrixReuses)
	if r.Stats.PlanTableBuilds > 0 {
		fmt.Fprintf(w, "  plan tables: %d statements resolved (%.1f KiB of distinct tables retained)   batched lookups: %d\n",
			r.Stats.PlanTableBuilds, float64(r.Stats.PlanTableBytes)/1024, r.Stats.BatchedLookups)
	}
	r.RenderRobustness(w)
	steps := r.Steps()
	if len(steps) == 0 {
		fmt.Fprintf(w, "  design: %s for the entire workload (no changes)\n",
			r.Solution.Designs[0].Format(r.StructureNames))
	} else {
		fmt.Fprintf(w, "  design steps:\n")
		for _, s := range steps {
			fmt.Fprintf(w, "    @%-6d %s -> %s\n", s.StatementIndex,
				s.From.Format(r.StructureNames), s.To.Format(r.StructureNames))
			for _, ddl := range s.DDL {
				fmt.Fprintf(w, "             %s\n", ddl)
			}
		}
	}
	if r.Calibration != nil {
		c := r.Calibration
		fmt.Fprintf(w, "  calibration: %d sampled (%d DML skipped, %d errors)   median abs ratio %.2fx   bias %+.0f%%\n",
			len(c.Samples), c.SkippedDML, c.Errors,
			c.MedianAbsRatio(), 100*(math.Exp2(c.MeanSignedLog2())-1))
	}
	if r.Explanation != nil {
		r.Explanation.Render(w)
	}
}

// RenderRobustness writes the robustness ledger of the solve: the
// ladder rung that answered and every rung that failed before it, plus
// the degradation/cancellation/recovered-panic counters. It prints
// nothing for a clean unsupervised solve, and is safe to call on a
// partial recommendation (one whose Solution is nil after an
// interrupted or failed run).
func (r *Recommendation) RenderRobustness(w io.Writer) {
	if r.Degraded || r.Degradations > 0 || r.Cancellations > 0 || r.RecoveredPanics > 0 {
		fmt.Fprintf(w, "  robustness: degradations %d   cancellations %d   recovered panics %d\n",
			r.Degradations, r.Cancellations, r.RecoveredPanics)
	}
	if len(r.RungReports) == 0 {
		return
	}
	for _, rep := range r.RungReports {
		if rep.Err == nil {
			fmt.Fprintf(w, "    rung %-14s answered in %.1f ms\n",
				rep.Strategy, float64(rep.Elapsed.Microseconds())/1000)
			continue
		}
		fmt.Fprintf(w, "    rung %-14s failed (%s) after %.1f ms: %v\n",
			rep.Strategy, rep.Class, float64(rep.Elapsed.Microseconds())/1000, rep.Err)
	}
}
