package experiments

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dyndesign/internal/advisor"
	"dyndesign/internal/core"
)

// bg is the context used by tests that don't exercise cancellation.
var bg = context.Background()

// table2 is computed once and shared: it is the expensive fixture every
// experiment test builds on.
var sharedT2 *Table2Result

// testScale is TestScale, or under -short (how the -race suite runs
// this package) a fifth of its rows and half its block size: Figure 3
// and estimate-vs-measured execute every statement on the live engine,
// at a cost of the table's pages each, and no shape asserted here needs
// more. No test skips under -short; every one runs at this scale.
func testScale() Scale {
	if testing.Short() {
		return Scale{Rows: TestScale.Rows / 5, BlockSize: TestScale.BlockSize / 2, Seed: TestScale.Seed}
	}
	return TestScale
}

func getTable2(t *testing.T) *Table2Result {
	t.Helper()
	if sharedT2 == nil {
		res, err := RunTable2(bg, testScale())
		if err != nil {
			t.Fatalf("RunTable2: %v", err)
		}
		sharedT2 = res
	}
	return sharedT2
}

func TestTable1Mixes(t *testing.T) {
	t1 := RunTable1()
	if len(t1.Rows) != 4 {
		t.Fatalf("mixes = %v", t1.Rows)
	}
	a := t1.Rows["A"]
	if a[0] != 0.55 || a[1] != 0.25 || a[2] != 0.10 || a[3] != 0.10 {
		t.Errorf("mix A = %v", a)
	}
	c := t1.Rows["C"]
	if c[2] != 0.55 || c[3] != 0.25 {
		t.Errorf("mix C = %v", c)
	}
	var sb strings.Builder
	t1.Render(&sb)
	if !strings.Contains(sb.String(), "Query Mix A") || !strings.Contains(sb.String(), "55%") {
		t.Errorf("render missing content:\n%s", sb.String())
	}
}

// TestTable2ReproducesPaperDesigns is the repository's headline test: the
// advisor's per-block designs must match the paper's Table 2 cell for
// cell — unconstrained designs tracking every minor shift (I(a,b) for A
// blocks, I(b) for B, I(c,d) for C, I(d) for D) and the k=2 designs
// tracking only the major shifts (I(a,b), I(c,d), I(a,b) per phase).
func TestTable2ReproducesPaperDesigns(t *testing.T) {
	res := getTable2(t)
	if len(res.Rows) != 30 {
		t.Fatalf("Table 2 has %d rows, want 30", len(res.Rows))
	}
	wantUnc, wantCon := ExpectedDesigns()
	for i, row := range res.Rows {
		if got := wantUnc[row.W1]; row.DesignUnconstrained != got {
			t.Errorf("block %d (%s, mix %s): unconstrained design %s, paper has %s",
				i, row.Range, row.W1, row.DesignUnconstrained, got)
		}
		if got := wantCon[row.W1]; row.DesignConstrained != got {
			t.Errorf("block %d (%s, mix %s): constrained design %s, paper has %s",
				i, row.Range, row.W1, row.DesignConstrained, got)
		}
	}
	// The workload columns must follow the paper's patterns.
	if res.Rows[0].W1 != "A" || res.Rows[2].W1 != "B" || res.Rows[10].W1 != "C" {
		t.Errorf("W1 labels wrong: %+v", res.Rows[0])
	}
	if res.Rows[0].W2 != "A" || res.Rows[1].W2 != "B" {
		t.Errorf("W2 labels wrong")
	}
	if res.Rows[0].W3 != "B" || res.Rows[2].W3 != "A" {
		t.Errorf("W3 labels wrong")
	}
}

func TestTable2ChangeCounts(t *testing.T) {
	res := getTable2(t)
	if got := res.Constrained.Solution.Changes; got > 2 {
		t.Errorf("constrained solution has %d changes, bound 2", got)
	}
	// The unconstrained optimum tracks all 14 minor/major shifts.
	if got := res.Unconstrained.Solution.Changes; got != 14 {
		t.Errorf("unconstrained solution has %d changes, paper structure implies 14", got)
	}
	// Constrained is suboptimal for W1 (the paper: 14% slower).
	if res.Constrained.Solution.Cost <= res.Unconstrained.Solution.Cost {
		t.Errorf("constrained cost %.0f not above unconstrained %.0f",
			res.Constrained.Solution.Cost, res.Unconstrained.Solution.Cost)
	}
}

func TestTable2Render(t *testing.T) {
	res := getTable2(t)
	var sb strings.Builder
	res.Render(&sb)
	out := sb.String()
	for _, want := range []string{"query number", "I(a,b)", "I(c,d)", "k=2"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestFigure3Shape verifies the paper's Figure 3 qualitatively: W1 is
// somewhat slower under the constrained design (the paper measured
// +14%), while W2 and W3 — similar workloads with different minor
// shifts — are *faster* under the constrained design than under the
// over-fitted unconstrained one.
func TestFigure3Shape(t *testing.T) {
	res, err := RunFigure3(bg, getTable2(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 6 {
		t.Fatalf("%d entries", len(res.Entries))
	}
	w1u := res.Entry("W1", "unconstrained")
	w1c := res.Entry("W1", "constrained")
	if w1u.Relative != 1.0 {
		t.Errorf("baseline relative = %f", w1u.Relative)
	}
	if w1c.Relative < 1.01 || w1c.Relative > 1.6 {
		t.Errorf("W1 constrained relative = %.3f, paper has ~1.14", w1c.Relative)
	}
	for _, wl := range []string{"W2", "W3"} {
		u := res.Entry(wl, "unconstrained")
		c := res.Entry(wl, "constrained")
		if c.Report.TotalPages() >= u.Report.TotalPages() {
			t.Errorf("%s: constrained (%d pages) not faster than unconstrained (%d pages)",
				wl, c.Report.TotalPages(), u.Report.TotalPages())
		}
	}
	// The database must be intact after all replays.
	if err := getTable2(t).DB.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	res.Render(&sb)
	if !strings.Contains(sb.String(), "W1") || !strings.Contains(sb.String(), "%") {
		t.Errorf("render:\n%s", sb.String())
	}
}

// TestFigure4Shape verifies the optimizer-runtime curves qualitatively:
// the k-aware optimizer slows down as k grows while merging speeds up,
// matching the paper's Figure 4.
func TestFigure4Shape(t *testing.T) {
	res, err := RunFigure4(bg, getTable2(t), []int{2, 8, 14})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.KAwareRel) != 3 || len(res.MergeRel) != 3 {
		t.Fatalf("result = %+v", res)
	}
	if res.KAwareRel[2] <= res.KAwareRel[0] {
		t.Errorf("k-aware runtime not increasing in k: %v", res.KAwareRel)
	}
	if res.MergeRel[0] <= res.MergeRel[2] {
		t.Errorf("merging runtime not decreasing in k: %v", res.MergeRel)
	}
	if res.UnconstrainedChanges != 14 {
		t.Errorf("l = %d, want 14", res.UnconstrainedChanges)
	}
	var sb strings.Builder
	res.Render(&sb)
	if !strings.Contains(sb.String(), "k-aware graph") {
		t.Errorf("render:\n%s", sb.String())
	}
}

func TestPaperSpaceShape(t *testing.T) {
	space := PaperSpace()
	if len(space.Structures) != 6 {
		t.Errorf("structures = %d", len(space.Structures))
	}
	if len(space.Configs) != 7 {
		t.Errorf("configs = %d", len(space.Configs))
	}
	names := space.StructureNames()
	want := []string{"I(a)", "I(b)", "I(c)", "I(d)", "I(a,b)", "I(c,d)"}
	for i, n := range want {
		if names[i] != n {
			t.Errorf("structure %d = %s, want %s", i, names[i], n)
		}
	}
	// Every config holds at most one index.
	for _, c := range space.Configs {
		if c.Count() > 1 {
			t.Errorf("config %v has more than one index", c)
		}
	}
}

func TestPaperOptions(t *testing.T) {
	o := PaperOptions(2)
	if o.K != 2 || o.Policy != core.FreeEndpoints || o.Final == nil || *o.Final != 0 {
		t.Errorf("options = %+v", o)
	}
}

// TestWriteLoadDropsIndexForBulkInserts verifies the advisor discovers
// the drop-load-rebuild pattern: with an insert-heavy phase between two
// read phases, the optimal dynamic design holds no index during the
// load.
func TestWriteLoadDropsIndexForBulkInserts(t *testing.T) {
	res, err := RunWriteLoad(bg, TestScale)
	if err != nil {
		t.Fatal(err)
	}
	if res.PhaseDesigns[0] != "I(a,b)" || res.PhaseDesigns[2] != "I(a,b)" {
		t.Errorf("read-phase designs = %v, want I(a,b)", res.PhaseDesigns)
	}
	if res.PhaseDesigns[1] != "{}" {
		t.Errorf("load-phase design = %s, want {} (drop for the load)", res.PhaseDesigns[1])
	}
	if res.ConstrainedChanges > 2 {
		t.Errorf("k=2 used %d changes", res.ConstrainedChanges)
	}
	if res.DropCost >= res.KeepCost {
		t.Errorf("dropping (%.0f) not cheaper than keeping (%.0f)", res.DropCost, res.KeepCost)
	}
	var sb strings.Builder
	res.Render(&sb)
	if !strings.Contains(sb.String(), "load phase") {
		t.Errorf("render:\n%s", sb.String())
	}
}

// TestAblationHarnesses smoke-tests the remaining ablation runners.
func TestAblationHarnesses(t *testing.T) {
	t2 := getTable2(t)
	quality, err := RunQualityVsK(bg, t2)
	if err != nil {
		t.Fatal(err)
	}
	if quality.L != 14 || len(quality.Ks) != 15 {
		t.Errorf("quality curve: l=%d points=%d", quality.L, len(quality.Ks))
	}
	// Monotone non-increasing, ends at 100%.
	for i := 1; i < len(quality.RelativeCost); i++ {
		if quality.RelativeCost[i] > quality.RelativeCost[i-1]+1e-9 {
			t.Errorf("quality curve increased at k=%d", quality.Ks[i])
		}
	}
	if last := quality.RelativeCost[len(quality.RelativeCost)-1]; last < 0.999 || last > 1.001 {
		t.Errorf("quality at k=l is %f, want 1.0", last)
	}

	policy, err := RunPolicyAblation(bg, t2, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	// Strict Definition 1 can never be cheaper than free endpoints at
	// the same k (it has strictly fewer feasible sequences).
	for i := range policy.Ks {
		if policy.StrictCost[i] < policy.FreeCost[i]-1e-6 {
			t.Errorf("k=%d: strict %f beats free %f", policy.Ks[i], policy.StrictCost[i], policy.FreeCost[i])
		}
	}

	ranking, err := RunRankingAblation(bg, t2, []int{14}, 500000)
	if err != nil {
		t.Fatal(err)
	}
	if ranking.PrunedExpand[0] > ranking.PlainExpand[0] {
		t.Error("pruned ranking expanded more than plain")
	}

	var sb strings.Builder
	quality.Render(&sb)
	policy.Render(&sb)
	ranking.Render(&sb)
	if !strings.Contains(sb.String(), "Ablation") {
		t.Error("ablation renders empty")
	}
}

// TestQualityCurveMatchesKAware is the differential test behind the
// quality curve reading one SweepK run: on W1, under both change
// policies, every point of the sweep costs exactly what SolveKAware
// finds at that bound, and RunQualityVsK's curve is those costs over
// the unconstrained optimum.
func TestQualityCurveMatchesKAware(t *testing.T) {
	t2 := getTable2(t)
	quality, err := RunQualityVsK(bg, t2)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []core.ChangePolicy{core.FreeEndpoints, core.CountAll} {
		opts := PaperOptions(core.Unconstrained)
		opts.Policy = policy
		p, _, err := t2.Advisor.Problem(t2.W1, opts)
		if err != nil {
			t.Fatal(err)
		}
		curve, err := core.SweepK(bg, p, quality.L)
		if err != nil {
			t.Fatal(err)
		}
		for _, pt := range curve {
			pk := *p
			pk.K = pt.K
			sol, err := core.SolveKAware(bg, &pk)
			if err != nil {
				t.Fatalf("%s, k=%d: %v", policy, pt.K, err)
			}
			if !pt.Feasible || pt.Cost != sol.Cost {
				t.Errorf("%s, k=%d: sweep point %+v, SolveKAware cost %v", policy, pt.K, pt, sol.Cost)
			}
			if policy == core.FreeEndpoints && quality.RelativeCost[pt.K] != sol.Cost/quality.Unconstrained {
				t.Errorf("k=%d: curve reads %v, SolveKAware cost %v over %v", pt.K,
					quality.RelativeCost[pt.K], sol.Cost, quality.Unconstrained)
			}
		}
	}
}

// TestStrategyComparison checks the table that decides the production
// strategies, not its timings: all three fixtures and every change
// bound are there, each on the kernel it is there for, and on the loaded
// lattice every bound binds; the exact rows agree (the kaware row with
// the always-layered relaxation bit for bit, ranking when its budget
// sufficed, partitioned when it reports no gap); no row beats the
// optimum or its bound; and a ranking run that exhausts its budget is a
// marked cell, not a failed comparison.
func TestStrategyComparison(t *testing.T) {
	cmp, err := RunStrategyComparison(bg, getTable2(t), 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Fixtures) != 3 || len(cmp.Ks) != 3 {
		t.Fatalf("comparison has %d fixtures x %d bounds, want 3 x 3", len(cmp.Fixtures), len(cmp.Ks))
	}
	if got := []int{cmp.Fixtures[0].Configs, cmp.Fixtures[1].Configs, cmp.Fixtures[2].Configs}; got[0] != 7 || got[1] != 64 || got[2] != 64 {
		t.Fatalf("fixtures have %v configurations, want 7 (dense kernel), 64 and 64 (hypercube)", got)
	}
	if l, maxK := cmp.Fixtures[2].L, cmp.Ks[len(cmp.Ks)-1]; l <= maxK {
		t.Errorf("%s: unconstrained optimum has l=%d changes, so k=%d does not bind", cmp.Fixtures[2].Name, l, maxK)
	}
	wantRows := len(core.Strategies()) + 3
	for _, f := range cmp.Fixtures {
		if len(f.Rows) != wantRows {
			t.Fatalf("%s: %d rows, want core's %d strategies and the 3 library functions", f.Name, len(f.Rows), len(core.Strategies()))
		}
		for ri, row := range f.Rows {
			for i, c := range row.Cells {
				k, opt := cmp.Ks[i], f.Optimal[i]
				switch {
				case c.Exhausted:
					if row.Name != "ranking" || c.Cost != 0 || f.Undominated(ri, i) {
						t.Errorf("%s, %s at k=%d: exhausted cell %+v", f.Name, row.Name, k, c)
					}
					continue
				case c.Changes > k:
					t.Errorf("%s, %s at k=%d: %d changes", f.Name, row.Name, k, c.Changes)
				case c.Cost < opt-1e-6:
					t.Errorf("%s, %s at k=%d: cost %v beats the optimum %v", f.Name, row.Name, k, c.Cost, opt)
				case c.Cost > opt+c.Gap+1e-6 && (row.Name == "kaware" || row.Name == "ranking" || row.Name == "partitioned"):
					t.Errorf("%s, %s at k=%d: cost %v, optimum %v, reported gap %v", f.Name, row.Name, k, c.Cost, opt, c.Gap)
				case row.Name == "layered" && c.Cost != opt:
					t.Errorf("%s at k=%d: SolveKAware costs %v, the kaware row %v", f.Name, k, c.Cost, opt)
				}
			}
		}
	}
	// Seven configurations over 3000 stages: plain ranking cannot finish
	// at these bounds, and rank-and-merge must still answer.
	for _, row := range cmp.Fixtures[0].Rows {
		for i, c := range row.Cells {
			if c.Exhausted != (row.Name == "ranking") {
				t.Errorf("%s at k=%d: exhausted = %v", row.Name, cmp.Ks[i], c.Exhausted)
			}
		}
	}
	var sb strings.Builder
	cmp.Render(&sb)
	for _, want := range []string{"budget exhausted", "greedyseq", "layered", "a load after every fifth block", "k=8"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("render lacks %q:\n%s", want, sb.String())
		}
	}
}

// TestEstimateVsMeasured pins the advisor's central promise: what-if
// estimates track measured execution within a tight band across k.
func TestEstimateVsMeasured(t *testing.T) {
	res, err := RunEstimateVsMeasured(bg, getTable2(t), []int{0, 2, 14})
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range res.Ks {
		est, meas := res.Estimated[i], float64(res.Measured[i])
		if est < meas*0.9 || est > meas*1.1 {
			t.Errorf("k=%d: estimated %.0f vs measured %.0f (>10%% apart)", k, est, meas)
		}
	}
	var sb strings.Builder
	res.Render(&sb)
	if !strings.Contains(sb.String(), "estimated") {
		t.Error("render empty")
	}
}

// TestCalibrationExperiment pins the per-statement counterpart of
// TestEstimateVsMeasured: with fresh statistics, the sampled statements'
// estimates stay within the same tight band the engine fixture
// guarantees (heap scans exact, index seeks off by the covering-scan
// page, i.e. a 1.5x ratio).
func TestCalibrationExperiment(t *testing.T) {
	res, err := RunCalibration(bg, getTable2(t), 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Run.Samples) == 0 || res.Run.Errors != 0 {
		t.Fatalf("implausible calibration run: %+v", res.Run)
	}
	if m := res.Run.MedianAbsRatio(); m > 1.5 {
		t.Errorf("fresh-statistics median abs ratio %.2f exceeds 1.5", m)
	}
	if len(res.Report.PerClass) == 0 || len(res.Report.PerStructure) == 0 {
		t.Errorf("report missing breakdowns: %+v", res.Report)
	}
	var sb strings.Builder
	res.Render(&sb)
	if !strings.Contains(sb.String(), "calibration") || !strings.Contains(sb.String(), "structure") {
		t.Errorf("render incomplete:\n%s", sb.String())
	}
}

// TestExportJSON smoke-tests the machine-readable export.
func TestExportJSON(t *testing.T) {
	t2 := getTable2(t)
	var sb strings.Builder
	report := JSONReport{Scale: t2.Scale, Table1: RunTable1(), Table2: t2.Rows}
	if err := WriteJSON(&sb, report); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`"table1"`, `"table2"`, `"I(a,b)"`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON export missing %s", want)
		}
	}
}

// TestLoadDatabase pins the one -setup / -paper-rows reading both
// command lines share: exactly one of the two, a script's table
// analyzed, the paper table announced on the progress writer.
func TestLoadDatabase(t *testing.T) {
	script := filepath.Join(t.TempDir(), "setup.sql")
	if err := os.WriteFile(script, []byte("CREATE TABLE t (a INT, b INT);\nINSERT INTO t VALUES (1, 2), (3, 4);\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var progress strings.Builder
	for _, c := range []struct {
		setup   string
		rows    int64
		table   string
		wantErr string
	}{
		{script, 100, "t", "not both"},
		{"", 0, "t", "is required"},
		{script + ".missing", 0, "t", "no such file"},
		{script, 0, "missing", "missing"},
		{script, 0, "t", ""},
		{"", 100, "t", ""},
	} {
		db, err := LoadDatabase(c.setup, c.rows, c.table, &progress)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("LoadDatabase(%q, %d, %q) = %v, want an error containing %q", c.setup, c.rows, c.table, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("LoadDatabase(%q, %d, %q): %v", c.setup, c.rows, c.table, err)
		}
		if _, err := advisor.New(db, PaperSpace()); c.rows > 0 && err != nil {
			t.Errorf("the paper table is not ready for an advisor: %v", err)
		}
	}
	if got := progress.String(); got != "building paper table with 100 rows...\n" {
		t.Errorf("progress output %q", got)
	}
}
