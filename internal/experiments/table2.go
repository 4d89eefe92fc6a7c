package experiments

import (
	"context"
	"fmt"
	"io"

	"dyndesign/internal/advisor"
	"dyndesign/internal/core"
	"dyndesign/internal/engine"
	"dyndesign/internal/workload"
)

// Table2Result reproduces the paper's Table 2: the three dynamic
// workloads and the designs recommended for W1 by the unconstrained and
// the k=2-constrained advisor. It also carries the database, workloads,
// and recommendations forward so Figure 3 can reuse them.
type Table2Result struct {
	Scale         Scale
	DB            *engine.Database
	Advisor       *advisor.Advisor
	W1, W2, W3    *workload.Workload
	Unconstrained *advisor.Recommendation
	Constrained   *advisor.Recommendation
	Rows          []Table2Row
}

// Table2Row is one block row of Table 2.
type Table2Row struct {
	Range               string // query number range, e.g. "1-500"
	W1                  string // mix label
	DesignUnconstrained string
	DesignConstrained   string
	W2, W3              string
}

// formatDesign renders a configuration the way the paper's table does:
// the single index name, or {} for the empty design (brace list for
// multi-index configurations, which the paper's space excludes).
func formatDesign(c core.Config, names []string) string {
	s := c.Structures()
	if len(s) == 0 {
		return "{}"
	}
	if len(s) == 1 {
		return names[s[0]]
	}
	return c.Format(names)
}

// RunTable2 reproduces Table 2 at the given scale: it loads the table,
// generates W1/W2/W3, recommends designs for W1 with k = ∞ and k = 2,
// and tabulates the per-block mixes and designs.
func RunTable2(ctx context.Context, s Scale) (_ *Table2Result, err error) {
	end := experimentSpan("table2")
	defer func() { end(err == nil) }()
	db, err := SetupPaperDatabase(s)
	if err != nil {
		return nil, err
	}
	var ws [3]*workload.Workload
	for i, name := range []string{"W1", "W2", "W3"} {
		ws[i], err = workload.PaperWorkload(name, s.Rows, s.BlockSize, s.Seed+100*int64(i+1))
		if err != nil {
			return nil, err
		}
	}
	w1, w2, w3 := ws[0], ws[1], ws[2]
	adv, err := advisor.New(db, PaperSpace())
	if err != nil {
		return nil, err
	}
	unc, err := adv.RecommendContext(ctx, w1, PaperOptions(core.Unconstrained))
	if err != nil {
		return nil, err
	}
	con, err := adv.RecommendContext(ctx, w1, PaperOptions(2))
	if err != nil {
		return nil, err
	}

	res := &Table2Result{
		Scale: s, DB: db, Advisor: adv,
		W1: w1, W2: w2, W3: w3,
		Unconstrained: unc, Constrained: con,
	}
	// One table row per fixed-size block, like the paper's Table 2 (30
	// rows of 500 queries). Designs are sampled mid-block: with one
	// optimization stage per statement the optimal switch point can
	// drift a statement or two around a block boundary, while the
	// mid-block design characterizes the block.
	names := adv.Space().StructureNames()
	for start := 0; start < w1.Len(); start += s.BlockSize {
		mid := start + s.BlockSize/2
		res.Rows = append(res.Rows, Table2Row{
			Range:               fmt.Sprintf("%d-%d", start+1, start+s.BlockSize),
			W1:                  w1.Labels[start],
			DesignUnconstrained: formatDesign(unc.DesignAt(mid), names),
			DesignConstrained:   formatDesign(con.DesignAt(mid), names),
			W2:                  w2.Labels[start],
			W3:                  w3.Labels[start],
		})
	}
	return res, nil
}

// Render prints the table in the paper's layout.
func (r *Table2Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Table 2: Dynamic Workloads and Physical Designs (rows=%d, block=%d)\n",
		r.Scale.Rows, r.Scale.BlockSize)
	fmt.Fprintf(w, "%-14s %-4s %-10s %-10s %-4s %-4s\n",
		"query number", "W1", "k=inf", "k=2", "W2", "W3")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-14s %-4s %-10s %-10s %-4s %-4s\n",
			row.Range, row.W1, row.DesignUnconstrained, row.DesignConstrained, row.W2, row.W3)
	}
	fmt.Fprintf(w, "\nunconstrained: cost=%.0f changes=%d   constrained k=2: cost=%.0f changes=%d\n",
		r.Unconstrained.Solution.Cost, r.Unconstrained.Solution.Changes,
		r.Constrained.Solution.Cost, r.Constrained.Solution.Changes)
}

// ExpectedDesigns returns the paper's Table 2 design columns for
// cross-checking: per block label, the design the paper reports for the
// unconstrained and the k=2 advisor.
func ExpectedDesigns() (unconstrained, constrained map[string]string) {
	unconstrained = map[string]string{
		"A": "I(a,b)", "B": "I(b)", "C": "I(c,d)", "D": "I(d)",
	}
	// The constrained design depends on the phase, not the block label:
	// I(a,b) during phases 1 and 3, I(c,d) during phase 2.
	constrained = map[string]string{
		"A": "I(a,b)", "B": "I(a,b)", "C": "I(c,d)", "D": "I(c,d)",
	}
	return unconstrained, constrained
}
