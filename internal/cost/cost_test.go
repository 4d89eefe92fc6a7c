package cost

import (
	"fmt"
	"math/rand"
	"testing"

	"dyndesign/internal/catalog"
	"dyndesign/internal/index"
	"dyndesign/internal/sql"
	"dyndesign/internal/stats"
	"dyndesign/internal/storage"
	"dyndesign/internal/types"
)

func paperSchema() *types.Schema {
	return types.MustSchema(
		types.Column{Name: "a", Kind: types.KindInt},
		types.Column{Name: "b", Kind: types.KindInt},
		types.Column{Name: "c", Kind: types.KindInt},
		types.Column{Name: "d", Kind: types.KindInt},
	)
}

// buildPaperHeap loads n uniform rows over [0, domain) into a heap and
// returns it with stats built.
func buildPaperHeap(t testing.TB, n, domain int) (*storage.HeapFile, *stats.TableStats) {
	t.Helper()
	heap := storage.NewHeapFile(nil)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < n; i++ {
		row := types.Row{
			types.NewInt(int64(rng.Intn(domain))),
			types.NewInt(int64(rng.Intn(domain))),
			types.NewInt(int64(rng.Intn(domain))),
			types.NewInt(int64(rng.Intn(domain))),
		}
		payload, err := types.EncodeRow(nil, row)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := heap.Insert(payload); err != nil {
			t.Fatal(err)
		}
	}
	ts, err := stats.Build("t", paperSchema(), heap, stats.DefaultBuckets)
	if err != nil {
		t.Fatal(err)
	}
	return heap, ts
}

func physOf(heap *storage.HeapFile, ts *stats.TableStats) TablePhys {
	return TablePhys{
		Name:      "t",
		Schema:    paperSchema(),
		Rows:      float64(heap.NumRows()),
		HeapPages: float64(heap.NumPages()),
		Stats:     ts,
	}
}

func hyp(t testing.TB, tp TablePhys, cols ...string) IndexPhys {
	t.Helper()
	ip, err := HypotheticalIndex(catalog.IndexDef{Table: "t", Columns: cols}, tp)
	if err != nil {
		t.Fatal(err)
	}
	return ip
}

func TestHypotheticalMatchesRealIndex(t *testing.T) {
	heap, ts := buildPaperHeap(t, 50000, 2000)
	tp := physOf(heap, ts)
	for _, cols := range [][]string{{"a"}, {"a", "b"}} {
		def := catalog.IndexDef{Table: "t", Columns: cols}
		pred := hyp(t, tp, cols...)
		real, err := index.Build(def, paperSchema(), heap)
		if err != nil {
			t.Fatal(err)
		}
		if ratio := pred.LeafPages / float64(real.LeafPages()); ratio < 0.8 || ratio > 1.25 {
			t.Errorf("%s: predicted %f leaf pages, real %d", def.Name(), pred.LeafPages, real.LeafPages())
		}
		if int(pred.Height) != real.Height() {
			t.Errorf("%s: predicted height %f, real %d", def.Name(), pred.Height, real.Height())
		}
		if ratio := pred.TotalPages / float64(real.SizePages()); ratio < 0.8 || ratio > 1.25 {
			t.Errorf("%s: predicted %f total pages, real %d", def.Name(), pred.TotalPages, real.SizePages())
		}
	}
}

func TestHypotheticalUnknownColumn(t *testing.T) {
	heap, ts := buildPaperHeap(t, 100, 10)
	if _, err := HypotheticalIndex(catalog.IndexDef{Table: "t", Columns: []string{"zzz"}}, physOf(heap, ts)); err == nil {
		t.Error("hypothetical index on unknown column succeeded")
	}
}

// The paper's cost regimes: for point queries,
// seek ≪ index-only scan < heap scan.
func TestCostRegimes(t *testing.T) {
	heap, ts := buildPaperHeap(t, 100000, 5000)
	tp := physOf(heap, ts)
	iab := hyp(t, tp, "a", "b")

	seekQ := sql.MustParse("SELECT a FROM t WHERE a = 42").(*sql.Select)
	scanQ := sql.MustParse("SELECT b FROM t WHERE b = 42").(*sql.Select)

	seek, err := ChooseAccess(seekQ, tp, []IndexPhys{iab})
	if err != nil {
		t.Fatal(err)
	}
	if seek.Kind != IndexSeek {
		t.Fatalf("a-query access = %v", seek)
	}
	ionly, err := ChooseAccess(scanQ, tp, []IndexPhys{iab})
	if err != nil {
		t.Fatal(err)
	}
	if ionly.Kind != IndexOnlyScan {
		t.Fatalf("b-query access = %v", ionly)
	}
	none, err := ChooseAccess(scanQ, tp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if none.Kind != HeapScan {
		t.Fatalf("no-index access = %v", none)
	}
	if !(seek.PageCost*10 < ionly.PageCost && ionly.PageCost < none.PageCost) {
		t.Errorf("regimes violated: seek %.1f, index-only %.1f, scan %.1f",
			seek.PageCost, ionly.PageCost, none.PageCost)
	}
}

// Reproduces the Table-2 argmin structure: for mix A (55%% a, 25%% b),
// I(a,b) must beat I(a) and I(b); for mix B (55%% b, 25%% a), I(b) must
// beat I(a,b).
func TestPaperArgminStructure(t *testing.T) {
	heap, ts := buildPaperHeap(t, 100000, 5000)
	tp := physOf(heap, ts)
	ia := hyp(t, tp, "a")
	ib := hyp(t, tp, "b")
	iab := hyp(t, tp, "a", "b")

	mixCost := func(idxs []IndexPhys, pa, pb, pc, pd float64) float64 {
		total := 0.0
		for col, frac := range map[string]float64{"a": pa, "b": pb, "c": pc, "d": pd} {
			q := sql.MustParse(fmt.Sprintf("SELECT %s FROM t WHERE %s = 42", col, col)).(*sql.Select)
			a, err := ChooseAccess(q, tp, idxs)
			if err != nil {
				t.Fatal(err)
			}
			total += frac * a.PageCost
		}
		return total
	}

	// Mix A: 55% a, 25% b, 10% c, 10% d.
	costIA := mixCost([]IndexPhys{ia}, 0.55, 0.25, 0.10, 0.10)
	costIB := mixCost([]IndexPhys{ib}, 0.55, 0.25, 0.10, 0.10)
	costIAB := mixCost([]IndexPhys{iab}, 0.55, 0.25, 0.10, 0.10)
	if !(costIAB < costIA && costIAB < costIB) {
		t.Errorf("mix A: I(a,b)=%.0f should beat I(a)=%.0f and I(b)=%.0f", costIAB, costIA, costIB)
	}
	// Mix B: 25% a, 55% b.
	costIA = mixCost([]IndexPhys{ia}, 0.25, 0.55, 0.10, 0.10)
	costIB = mixCost([]IndexPhys{ib}, 0.25, 0.55, 0.10, 0.10)
	costIAB = mixCost([]IndexPhys{iab}, 0.25, 0.55, 0.10, 0.10)
	if !(costIB < costIAB && costIB < costIA) {
		t.Errorf("mix B: I(b)=%.0f should beat I(a,b)=%.0f and I(a)=%.0f", costIB, costIAB, costIA)
	}
	// Phase level (40% a, 40% b): I(a,b) wins again.
	costIA = mixCost([]IndexPhys{ia}, 0.40, 0.40, 0.10, 0.10)
	costIB = mixCost([]IndexPhys{ib}, 0.40, 0.40, 0.10, 0.10)
	costIAB = mixCost([]IndexPhys{iab}, 0.40, 0.40, 0.10, 0.10)
	if !(costIAB < costIA && costIAB < costIB) {
		t.Errorf("phase: I(a,b)=%.0f should beat I(a)=%.0f and I(b)=%.0f", costIAB, costIA, costIB)
	}
}

func TestChooseAccessConsumedAndResidual(t *testing.T) {
	heap, ts := buildPaperHeap(t, 20000, 1000)
	tp := physOf(heap, ts)
	iab := hyp(t, tp, "a", "b")
	q := sql.MustParse("SELECT a, b FROM t WHERE b = 9 AND a = 3 AND c = 1").(*sql.Select)
	a, err := ChooseAccess(q, tp, []IndexPhys{iab})
	if err != nil {
		t.Fatal(err)
	}
	if a.Kind != IndexSeek || len(a.EqVals) != 2 {
		t.Fatalf("access = %v", a)
	}
	// Consumed must be the a and b conjuncts (indices 1 and 0), leaving c.
	if len(a.Consumed) != 2 {
		t.Fatalf("consumed = %v", a.Consumed)
	}
	for _, ci := range a.Consumed {
		if q.Where.Conjuncts[ci].Column == "c" {
			t.Error("c conjunct wrongly consumed")
		}
	}
	// EqVals must follow index column order (a, b), not predicate order.
	if a.EqVals[0].Int != 3 || a.EqVals[1].Int != 9 {
		t.Errorf("EqVals = %v", a.EqVals)
	}
}

func TestChooseAccessRangeCombining(t *testing.T) {
	heap, ts := buildPaperHeap(t, 20000, 1000)
	tp := physOf(heap, ts)
	ia := hyp(t, tp, "a")
	q := sql.MustParse("SELECT a FROM t WHERE a >= 10 AND a < 20 AND a >= 12").(*sql.Select)
	acc, err := ChooseAccess(q, tp, []IndexPhys{ia})
	if err != nil {
		t.Fatal(err)
	}
	if acc.Kind != IndexSeek || acc.Range == nil {
		t.Fatalf("access = %v", acc)
	}
	if acc.Range.Low == nil || acc.Range.Low.Int != 12 || !acc.Range.LowInclusive {
		t.Errorf("low bound = %+v", acc.Range.Low)
	}
	if acc.Range.High == nil || acc.Range.High.Int != 20 || acc.Range.HighInclusive {
		t.Errorf("high bound = %+v", acc.Range.High)
	}
	if len(acc.Consumed) != 3 {
		t.Errorf("consumed = %v", acc.Consumed)
	}
}

func TestValidateSelectErrors(t *testing.T) {
	heap, ts := buildPaperHeap(t, 100, 10)
	tp := physOf(heap, ts)
	bad := []string{
		"SELECT zzz FROM t",
		"SELECT a FROM t WHERE zzz = 1",
		"SELECT a FROM t WHERE a = 'str'",
		"SELECT a FROM t ORDER BY zzz",
	}
	for _, q := range bad {
		sel := sql.MustParse(q).(*sql.Select)
		if _, err := ChooseAccess(sel, tp, nil); err == nil {
			t.Errorf("%q accepted", q)
		}
	}
}

func TestSelectStarNeverIndexOnly(t *testing.T) {
	heap, ts := buildPaperHeap(t, 50000, 2000)
	tp := physOf(heap, ts)
	iab := hyp(t, tp, "a", "b")
	q := sql.MustParse("SELECT * FROM t WHERE b = 3").(*sql.Select)
	a, err := ChooseAccess(q, tp, []IndexPhys{iab})
	if err != nil {
		t.Fatal(err)
	}
	if a.Kind == IndexOnlyScan {
		t.Error("SELECT * chose an index-only scan that cannot produce all columns")
	}
}

// TestStatementCostDML prices DML through plan tables over the one index
// I(a): configuration 0 is the table alone, 1 the table with I(a).
func TestStatementCostDML(t *testing.T) {
	heap, ts := buildPaperHeap(t, 20000, 1000)
	tp := physOf(heap, ts)
	ia := []IndexPhys{hyp(t, tp, "a")}
	execCost := func(text string, c uint64) (float64, error) {
		pt, err := CompilePlan(sql.MustParse(text), tp, ia)
		if err != nil {
			return 0, err
		}
		return pt.Cost(c), nil
	}

	c0, err := execCost("INSERT INTO t VALUES (1,2,3,4)", 0)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := execCost("INSERT INTO t VALUES (1,2,3,4)", 1)
	if err != nil {
		t.Fatal(err)
	}
	if c1 <= c0 {
		t.Errorf("insert with index (%f) not costlier than without (%f)", c1, c0)
	}

	cu, err := execCost("UPDATE t SET b = 1 WHERE a = 5", 1)
	if err != nil || cu <= 0 {
		t.Errorf("update cost = %f, %v", cu, err)
	}
	cd, err := execCost("DELETE FROM t WHERE a = 5", 1)
	if err != nil || cd <= 0 {
		t.Errorf("delete cost = %f, %v", cd, err)
	}

	if _, err := execCost("CREATE INDEX ON t (a)", 0); err == nil {
		t.Error("DDL accepted as workload statement")
	}
}

func TestBuildCostMatchesMeasuredBuild(t *testing.T) {
	var access storage.AccessStats
	heap := storage.NewHeapFile(&access)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50000; i++ {
		row := types.Row{
			types.NewInt(int64(rng.Intn(2000))),
			types.NewInt(int64(rng.Intn(2000))),
			types.NewInt(int64(rng.Intn(2000))),
			types.NewInt(int64(rng.Intn(2000))),
		}
		payload, _ := types.EncodeRow(nil, row)
		heap.Insert(payload)
	}
	ts, err := stats.Build("t", paperSchema(), heap, stats.DefaultBuckets)
	if err != nil {
		t.Fatal(err)
	}
	tp := physOf(heap, ts)
	ip := hyp(t, tp, "a", "b")
	predicted := BuildCost(ip, tp)

	access.Reset()
	if _, err := index.Build(catalog.IndexDef{Table: "t", Columns: []string{"a", "b"}}, paperSchema(), heap); err != nil {
		t.Fatal(err)
	}
	measured := float64(access.Total())
	if predicted < measured*0.7 || predicted > measured*1.4 {
		t.Errorf("BuildCost predicted %.0f, measured %.0f", predicted, measured)
	}
}

func TestHeapPagesForRows(t *testing.T) {
	if got := HeapPagesForRows(0, 40); got != 1 {
		t.Errorf("empty table pages = %f", got)
	}
	// 40-byte rows + 4-byte slots: ~186 rows per 8 KiB page.
	got := HeapPagesForRows(18600, 40)
	if got < 90 || got > 110 {
		t.Errorf("pages = %f, want ~100", got)
	}
}

func TestDropCost(t *testing.T) {
	if DropCost() <= 0 {
		t.Error("drop cost must be positive")
	}
}

func TestAccessKindString(t *testing.T) {
	if HeapScan.String() != "HeapScan" || IndexSeek.String() != "IndexSeek" || IndexOnlyScan.String() != "IndexOnlyScan" {
		t.Error("AccessKind names wrong")
	}
}

func TestTieBreakDeterminism(t *testing.T) {
	heap, ts := buildPaperHeap(t, 20000, 1000)
	tp := physOf(heap, ts)
	ia := hyp(t, tp, "a")
	ib := hyp(t, tp, "b")
	q := sql.MustParse("SELECT a, b FROM t WHERE a = 1 AND b = 1").(*sql.Select)
	first, err := ChooseAccess(q, tp, []IndexPhys{ia, ib})
	if err != nil {
		t.Fatal(err)
	}
	// Same candidates in reverse order must give the same answer.
	second, err := ChooseAccess(q, tp, []IndexPhys{ib, ia})
	if err != nil {
		t.Fatal(err)
	}
	if first.Kind != second.Kind || indexName(first) != indexName(second) {
		t.Errorf("tie-break not deterministic: %v vs %v", first, second)
	}
}

func TestValidateAggregatesAndIn(t *testing.T) {
	heap, ts := buildPaperHeap(t, 200, 20)
	tp := physOf(heap, ts)
	bad := []string{
		"SELECT SUM(a) FROM t GROUP BY zzz",             // unknown group column
		"SELECT a, COUNT(*) FROM t GROUP BY b",          // naked column != group column
		"SELECT b, MIN(a) FROM t GROUP BY b ORDER BY a", // order by non-group col
		"SELECT MIN(zzz) FROM t",                        // unknown aggregate column
		"SELECT a FROM t WHERE a IN ('x')",              // IN kind mismatch
	}
	for _, q := range bad {
		sel := sql.MustParse(q).(*sql.Select)
		if _, err := ChooseAccess(sel, tp, nil); err == nil {
			t.Errorf("%q accepted", q)
		}
	}
	good := []string{
		"SELECT b, COUNT(*), SUM(a) FROM t GROUP BY b ORDER BY b",
		"SELECT MIN(a), MAX(a) FROM t WHERE a IN (1, 2, 3)",
	}
	for _, q := range good {
		sel := sql.MustParse(q).(*sql.Select)
		if _, err := ChooseAccess(sel, tp, nil); err != nil {
			t.Errorf("%q rejected: %v", q, err)
		}
	}
}

func TestAccessStringForms(t *testing.T) {
	heap, ts := buildPaperHeap(t, 50000, 2000)
	tp := physOf(heap, ts)
	iab := hyp(t, tp, "a", "b")
	for _, q := range []string{
		"SELECT a FROM t WHERE a = 1", // seek
		"SELECT b FROM t WHERE b = 1", // index-only scan
		"SELECT c FROM t WHERE c = 1", // heap scan
	} {
		sel := sql.MustParse(q).(*sql.Select)
		a, err := ChooseAccess(sel, tp, []IndexPhys{iab})
		if err != nil {
			t.Fatal(err)
		}
		if a.String() == "" || a.String() == "unknown access" {
			t.Errorf("%q: bad access string %q", q, a.String())
		}
	}
}

func TestSelectivityWithoutStats(t *testing.T) {
	heap, _ := buildPaperHeap(t, 1000, 100)
	tp := TablePhys{
		Name: "t", Schema: paperSchema(),
		Rows: float64(heap.NumRows()), HeapPages: float64(heap.NumPages()),
		Stats: nil, // defaults kick in
	}
	for _, q := range []string{
		"SELECT a FROM t WHERE a = 1",
		"SELECT a FROM t WHERE a > 1 AND a <= 5",
		"SELECT a FROM t WHERE a IN (1, 2)",
		"SELECT a FROM t WHERE a < 9",
		"SELECT a FROM t WHERE a >= 2",
	} {
		sel := sql.MustParse(q).(*sql.Select)
		a, err := ChooseAccess(sel, tp, nil)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if a.EstResultRows < 0 || a.EstResultRows > tp.Rows {
			t.Errorf("%q: estimate %f out of range", q, a.EstResultRows)
		}
	}
}

func TestInSelectivityCapped(t *testing.T) {
	heap, ts := buildPaperHeap(t, 1000, 3) // tiny domain: each value ~33%
	tp := physOf(heap, ts)
	sel := sql.MustParse("SELECT a FROM t WHERE a IN (0, 1, 2)").(*sql.Select)
	a, err := ChooseAccess(sel, tp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.EstResultRows > tp.Rows*1.01 {
		t.Errorf("IN selectivity not capped: %f rows of %f", a.EstResultRows, tp.Rows)
	}
}
