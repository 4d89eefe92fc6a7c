package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"dyndesign/internal/cost"
	"dyndesign/internal/types"
)

// newTestDB builds the paper's table shape at a small scale: columns
// a,b,c,d with uniform values in [0, domain).
func newTestDB(t testing.TB, rows, domain int) *Database {
	t.Helper()
	db := New()
	db.MustExec("CREATE TABLE t (a INT, b INT, c INT, d INT)")
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < rows; i++ {
		q := fmt.Sprintf("INSERT INTO t VALUES (%d, %d, %d, %d)",
			rng.Intn(domain), rng.Intn(domain), rng.Intn(domain), rng.Intn(domain))
		db.MustExec(q)
	}
	if err := db.Analyze("t"); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestCreateTableAndInsertSelect(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE t (a INT, s STRING)")
	r := db.MustExec("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')")
	if r.Count != 3 {
		t.Errorf("insert count = %d", r.Count)
	}
	res := db.MustExec("SELECT * FROM t ORDER BY a")
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].Int != 1 || res.Rows[0][1].Str != "x" {
		t.Errorf("row 0 = %v", res.Rows[0])
	}
	if res.Columns[0] != "a" || res.Columns[1] != "s" {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestInsertWithColumnOrder(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE t (a INT, s STRING)")
	db.MustExec("INSERT INTO t (s, a) VALUES ('x', 7)")
	res := db.MustExec("SELECT a, s FROM t")
	if res.Rows[0][0].Int != 7 || res.Rows[0][1].Str != "x" {
		t.Errorf("row = %v", res.Rows[0])
	}
}

func TestInsertErrors(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE t (a INT, s STRING)")
	for _, q := range []string{
		"INSERT INTO missing VALUES (1, 'x')",
		"INSERT INTO t VALUES (1)",               // arity
		"INSERT INTO t VALUES ('x', 'y')",        // kind mismatch
		"INSERT INTO t (a) VALUES (1)",           // partial column list
		"INSERT INTO t (a, a) VALUES (1, 2)",     // repeated column
		"INSERT INTO t (a, zzz) VALUES (1, 'x')", // unknown column
	} {
		if _, err := db.Exec(q); err == nil {
			t.Errorf("%q succeeded", q)
		}
	}
}

// TestInsertRefusesWholeStatement: the statement is checked before its
// first row is written, so a bad row anywhere leaves the table as it was.
func TestInsertRefusesWholeStatement(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE t (a INT, s STRING)")
	for _, q := range []string{
		"INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3)",
		"INSERT INTO t (s, a) VALUES ('x', 1), (2, 'y')",
	} {
		if _, err := db.Exec(q); err == nil {
			t.Errorf("%q succeeded", q)
		}
	}
	if n := db.MustExec("SELECT COUNT(*) FROM t").Count; n != 0 {
		t.Fatalf("refused inserts left %d rows", n)
	}
}

func TestSelectFilterCorrectness(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE t (a INT, b INT)")
	for i := 0; i < 100; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", i, i%10))
	}
	res := db.MustExec("SELECT a FROM t WHERE b = 3 AND a < 50")
	if len(res.Rows) != 5 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r[0].Int%10 != 3 || r[0].Int >= 50 {
			t.Errorf("row %v does not satisfy predicate", r)
		}
	}
}

func TestSelectCountStar(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE t (a INT, b INT)")
	for i := 0; i < 40; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", i, i%4))
	}
	res := db.MustExec("SELECT COUNT(*) FROM t WHERE b = 1")
	if res.Count != 10 {
		t.Errorf("count = %d", res.Count)
	}
	res = db.MustExec("SELECT COUNT(*) FROM t")
	if res.Count != 40 {
		t.Errorf("count = %d", res.Count)
	}
}

func TestOrderByAndLimit(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE t (a INT, b INT)")
	for _, v := range []int{5, 3, 9, 1, 7} {
		db.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, 0)", v))
	}
	res := db.MustExec("SELECT a FROM t ORDER BY a")
	want := []int64{1, 3, 5, 7, 9}
	for i, r := range res.Rows {
		if r[0].Int != want[i] {
			t.Errorf("asc position %d = %d", i, r[0].Int)
		}
	}
	res = db.MustExec("SELECT a FROM t ORDER BY a DESC LIMIT 2")
	if len(res.Rows) != 2 || res.Rows[0][0].Int != 9 || res.Rows[1][0].Int != 7 {
		t.Errorf("desc limit = %v", res.Rows)
	}
	// ORDER BY a column that is not projected.
	res = db.MustExec("SELECT b FROM t ORDER BY a LIMIT 1")
	if len(res.Rows) != 1 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestIndexSeekPlanAndResults(t *testing.T) {
	db := newTestDB(t, 2000, 100)
	// Without an index: heap scan.
	plan, err := db.Explain("SELECT a FROM t WHERE a = 42")
	if err != nil {
		t.Fatal(err)
	}
	if plan.Access.Kind != cost.HeapScan {
		t.Errorf("pre-index plan = %v", plan)
	}
	baseline := db.MustExec("SELECT a FROM t WHERE a = 42")

	db.MustExec("CREATE INDEX ON t (a)")
	plan, err = db.Explain("SELECT a FROM t WHERE a = 42")
	if err != nil {
		t.Fatal(err)
	}
	if plan.Access.Kind != cost.IndexSeek || plan.Access.Index.Def.Name() != "I(a)" {
		t.Errorf("post-index plan = %v", plan)
	}
	if !plan.Access.Covering {
		t.Error("seek on I(a) projecting a should be covering")
	}
	indexed := db.MustExec("SELECT a FROM t WHERE a = 42")
	if len(indexed.Rows) != len(baseline.Rows) {
		t.Errorf("index seek returned %d rows, scan %d", len(indexed.Rows), len(baseline.Rows))
	}
}

func TestIndexSeekNonCoveringFetchesHeap(t *testing.T) {
	db := newTestDB(t, 20000, 1000)
	db.MustExec("CREATE INDEX ON t (a)")
	plan, _ := db.Explain("SELECT b FROM t WHERE a = 7")
	if plan.Access.Kind != cost.IndexSeek || plan.Access.Covering {
		t.Errorf("plan = %v", plan)
	}
	res := db.MustExec("SELECT b FROM t WHERE a = 7")
	check := db.MustExec("SELECT COUNT(*) FROM t WHERE a = 7")
	if int64(len(res.Rows)) != check.Count {
		t.Errorf("non-covering seek returned %d rows, count says %d", len(res.Rows), check.Count)
	}
}

func TestIndexOnlyScanChosenForNonLeadingColumn(t *testing.T) {
	db := newTestDB(t, 5000, 200)
	db.MustExec("CREATE INDEX ON t (a, b)")
	// Query on b: no seek possible, but I(a,b) covers {b}, and scanning
	// its leaves beats scanning the wider heap.
	plan, err := db.Explain("SELECT b FROM t WHERE b = 10")
	if err != nil {
		t.Fatal(err)
	}
	if plan.Access.Kind != cost.IndexOnlyScan {
		t.Errorf("plan = %v, want IndexOnlyScan", plan)
	}
	res := db.MustExec("SELECT b FROM t WHERE b = 10")
	for _, r := range res.Rows {
		if r[0].Int != 10 {
			t.Errorf("index-only scan returned %v", r)
		}
	}
}

func TestRangePredicateUsesIndex(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE t (a INT, b INT)")
	for i := 0; i < 1000; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", i, i*2))
	}
	if err := db.Analyze("t"); err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE INDEX ON t (a)")
	plan, _ := db.Explain("SELECT a FROM t WHERE a >= 100 AND a < 110")
	if plan.Access.Kind != cost.IndexSeek || plan.Access.Range == nil {
		t.Fatalf("plan = %v, want range IndexSeek", plan)
	}
	res := db.MustExec("SELECT a FROM t WHERE a >= 100 AND a < 110")
	if len(res.Rows) != 10 {
		t.Errorf("range returned %d rows", len(res.Rows))
	}
	res = db.MustExec("SELECT a FROM t WHERE a > 100 AND a <= 110")
	if len(res.Rows) != 10 {
		t.Errorf("exclusive/inclusive range returned %d rows", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r[0].Int <= 100 || r[0].Int > 110 {
			t.Errorf("row %v outside (100,110]", r)
		}
	}
	res = db.MustExec("SELECT a FROM t WHERE a BETWEEN 5 AND 7")
	if len(res.Rows) != 3 {
		t.Errorf("BETWEEN returned %d rows", len(res.Rows))
	}
}

func TestCompositeSeekEqPlusRange(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE t (a INT, b INT)")
	for a := 0; a < 20; a++ {
		for b := 0; b < 50; b++ {
			db.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", a, b))
		}
	}
	if err := db.Analyze("t"); err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE INDEX ON t (a, b)")
	plan, _ := db.Explain("SELECT a, b FROM t WHERE a = 3 AND b >= 10 AND b < 20")
	if plan.Access.Kind != cost.IndexSeek || len(plan.Access.EqVals) != 1 || plan.Access.Range == nil {
		t.Fatalf("plan = %v", plan)
	}
	if len(plan.Residual) != 0 {
		t.Errorf("unexpected residual %v", plan.Residual)
	}
	res := db.MustExec("SELECT a, b FROM t WHERE a = 3 AND b >= 10 AND b < 20")
	if len(res.Rows) != 10 {
		t.Errorf("got %d rows", len(res.Rows))
	}
}

func TestEquivalenceAcrossAccessPaths(t *testing.T) {
	// The same queries must return identical result sets before and
	// after adding indexes — the planner changes access paths, never
	// semantics.
	db := newTestDB(t, 3000, 50)
	queries := []string{
		"SELECT a FROM t WHERE a = 10",
		"SELECT b FROM t WHERE b = 25",
		"SELECT a, b FROM t WHERE a = 10 AND b = 25",
		"SELECT c FROM t WHERE c >= 40 AND c < 45",
		"SELECT COUNT(*) FROM t WHERE d = 5",
		"SELECT a FROM t WHERE a = 10 AND c = 3",
		"SELECT * FROM t WHERE a = 10 ORDER BY b LIMIT 4",
	}
	baseline := make([]*Result, len(queries))
	for i, q := range queries {
		baseline[i] = db.MustExec(q)
	}
	for _, ddl := range []string{
		"CREATE INDEX ON t (a)",
		"CREATE INDEX ON t (a, b)",
		"CREATE INDEX ON t (c)",
		"CREATE INDEX ON t (c, d)",
	} {
		db.MustExec(ddl)
		for i, q := range queries {
			got := db.MustExec(q)
			if got.Count != baseline[i].Count || len(got.Rows) != len(baseline[i].Rows) {
				t.Fatalf("after %q, query %q: %d rows vs baseline %d",
					ddl, q, len(got.Rows), len(baseline[i].Rows))
			}
			// Compare as multisets via sorted render.
			if renderRows(got.Rows) != renderRows(baseline[i].Rows) {
				t.Fatalf("after %q, query %q changed results", ddl, q)
			}
		}
	}
	if err := db.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func renderRows(rows []types.Row) string {
	lines := make([]string, len(rows))
	for i, r := range rows {
		lines[i] = r.String()
	}
	// Order-insensitive comparison: sort the rendered lines.
	for i := 1; i < len(lines); i++ {
		for j := i; j > 0 && lines[j] < lines[j-1]; j-- {
			lines[j], lines[j-1] = lines[j-1], lines[j]
		}
	}
	out := ""
	for _, l := range lines {
		out += l + "\n"
	}
	return out
}

func TestUpdateMaintainsIndexes(t *testing.T) {
	db := newTestDB(t, 500, 20)
	db.MustExec("CREATE INDEX ON t (a)")
	before := db.MustExec("SELECT COUNT(*) FROM t WHERE a = 5").Count
	moved := db.MustExec("UPDATE t SET a = 5 WHERE a = 7")
	after := db.MustExec("SELECT COUNT(*) FROM t WHERE a = 5").Count
	if after != before+moved.Count {
		t.Errorf("a=5 count %d -> %d after moving %d rows", before, after, moved.Count)
	}
	if db.MustExec("SELECT COUNT(*) FROM t WHERE a = 7").Count != 0 {
		t.Error("rows with a=7 remain after update")
	}
	if err := db.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteMaintainsIndexes(t *testing.T) {
	db := newTestDB(t, 500, 20)
	db.MustExec("CREATE INDEX ON t (b)")
	total := db.MustExec("SELECT COUNT(*) FROM t").Count
	gone := db.MustExec("DELETE FROM t WHERE b = 3")
	if db.MustExec("SELECT COUNT(*) FROM t WHERE b = 3").Count != 0 {
		t.Error("rows with b=3 remain")
	}
	if db.MustExec("SELECT COUNT(*) FROM t").Count != total-gone.Count {
		t.Error("total count wrong after delete")
	}
	if err := db.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDropIndexRevertsPlans(t *testing.T) {
	db := newTestDB(t, 1000, 50)
	db.MustExec("CREATE INDEX ON t (a)")
	plan, _ := db.Explain("SELECT a FROM t WHERE a = 1")
	if plan.Access.Kind == cost.HeapScan {
		t.Fatal("index not used")
	}
	db.MustExec("DROP INDEX I(a) ON t")
	plan, _ = db.Explain("SELECT a FROM t WHERE a = 1")
	if plan.Access.Kind != cost.HeapScan {
		t.Errorf("plan after drop = %v", plan)
	}
	names, _ := db.IndexNames("t")
	if len(names) != 0 {
		t.Errorf("IndexNames = %v", names)
	}
}

func TestCreateIndexErrors(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE t (a INT)")
	if _, err := db.Exec("CREATE INDEX ON missing (a)"); err == nil {
		t.Error("index on missing table created")
	}
	if _, err := db.Exec("CREATE INDEX ON t (zzz)"); err == nil {
		t.Error("index on missing column created")
	}
	db.MustExec("CREATE INDEX ON t (a)")
	if _, err := db.Exec("CREATE INDEX ON t (a)"); err == nil {
		t.Error("duplicate index created")
	}
	if _, err := db.Exec("DROP INDEX I(zzz) ON t"); err == nil {
		t.Error("drop of missing index succeeded")
	}
}

func TestSeekChargesFewerPagesThanScan(t *testing.T) {
	db := newTestDB(t, 20000, 500)
	stats := db.AccessStats()

	stats.Reset()
	db.MustExec("SELECT a FROM t WHERE a = 42")
	scanCost := stats.Total()

	db.MustExec("CREATE INDEX ON t (a)")
	stats.Reset()
	db.MustExec("SELECT a FROM t WHERE a = 42")
	seekCost := stats.Total()

	if seekCost*10 > scanCost {
		t.Errorf("seek cost %d not ≪ scan cost %d", seekCost, scanCost)
	}
}

func TestIndexOnlyScanCheaperThanHeapScan(t *testing.T) {
	db := newTestDB(t, 20000, 500)
	stats := db.AccessStats()

	stats.Reset()
	db.MustExec("SELECT b FROM t WHERE b = 42")
	heapCost := stats.Total()

	db.MustExec("CREATE INDEX ON t (a, b)")
	stats.Reset()
	db.MustExec("SELECT b FROM t WHERE b = 42")
	idxCost := stats.Total()

	if idxCost >= heapCost {
		t.Errorf("index-only scan cost %d >= heap scan cost %d", idxCost, heapCost)
	}
}

func TestPlannerCostMatchesMeasuredCost(t *testing.T) {
	// The planner's page estimate and the measured page accesses must
	// agree within a small factor — this is the property that makes
	// what-if advisor estimates trustworthy.
	db := newTestDB(t, 20000, 500)
	db.MustExec("CREATE INDEX ON t (a)")
	db.MustExec("CREATE INDEX ON t (c, d)")
	queries := []string{
		"SELECT a FROM t WHERE a = 100",
		"SELECT b FROM t WHERE b = 100",
		"SELECT c FROM t WHERE c = 9",
		"SELECT d FROM t WHERE d = 250",
	}
	for _, q := range queries {
		plan, err := db.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		db.AccessStats().Reset()
		db.MustExec(q)
		measured := float64(db.AccessStats().Total())
		est := plan.Access.PageCost
		if est < measured/3 || est > measured*3 {
			t.Errorf("%q: estimated %.1f pages, measured %.0f (plan %v)", q, est, measured, plan)
		}
	}
}

func TestExplainErrors(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE t (a INT)")
	if _, err := db.Explain("INSERT INTO t VALUES (1)"); err == nil {
		t.Error("EXPLAIN INSERT succeeded")
	}
	if _, err := db.Explain("SELECT * FROM missing"); err == nil {
		t.Error("EXPLAIN on missing table succeeded")
	}
	if _, err := db.Explain("SELECT zzz FROM t"); err == nil {
		t.Error("EXPLAIN with unknown column succeeded")
	}
	if _, err := db.Explain("SELECT a FROM t WHERE a = 'str'"); err == nil {
		t.Error("EXPLAIN with kind mismatch succeeded")
	}
}

func TestPlanString(t *testing.T) {
	db := newTestDB(t, 100, 10)
	db.MustExec("CREATE INDEX ON t (a)")
	plan, _ := db.Explain("SELECT a FROM t WHERE a = 1 AND b = 2")
	s := plan.String()
	if s == "" {
		t.Error("empty plan string")
	}
	// Residual on b must appear in the explain line.
	if plan.Residual == nil {
		t.Error("expected residual filter on b")
	}
}

func TestUpdateMovedRowStillIndexed(t *testing.T) {
	// Growing a row can move it to a new RID; indexes must follow.
	db := New()
	db.MustExec("CREATE TABLE t (a INT, s STRING)")
	for i := 0; i < 200; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, 'x')", i))
	}
	db.MustExec("CREATE INDEX ON t (a)")
	big := make([]byte, 500)
	for i := range big {
		big[i] = 'q'
	}
	db.MustExec(fmt.Sprintf("UPDATE t SET s = '%s' WHERE a = 50", string(big)))
	res := db.MustExec("SELECT s FROM t WHERE a = 50")
	if len(res.Rows) != 1 || len(res.Rows[0][0].Str) != 500 {
		t.Fatalf("moved row not found via index: %v rows", len(res.Rows))
	}
	if err := db.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestExplainStatement(t *testing.T) {
	db := newTestDB(t, 2000, 100)
	db.MustExec("CREATE INDEX ON t (a)")
	res := db.MustExec("EXPLAIN SELECT a FROM t WHERE a = 3")
	if len(res.Rows) != 1 || res.Columns[0] != "plan" {
		t.Fatalf("explain result = %+v", res)
	}
	text := res.Rows[0][0].Str
	if !strings.Contains(text, "IndexSeek") {
		t.Errorf("explain text = %q", text)
	}
	if res.Plan == nil || res.Plan.Access.Kind != cost.IndexSeek {
		t.Errorf("plan = %v", res.Plan)
	}
	// EXPLAIN must not execute: page counter unchanged beyond planning.
	if _, err := db.Exec("EXPLAIN INSERT INTO t VALUES (1,2,3,4)"); err == nil {
		t.Error("EXPLAIN INSERT accepted")
	}
	if _, err := db.Exec("EXPLAIN SELECT zzz FROM t"); err == nil {
		t.Error("EXPLAIN of invalid query accepted")
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	// The Database serializes statements internally; concurrent use from
	// many goroutines must be safe (run with -race).
	db := newTestDB(t, 2000, 100)
	db.MustExec("CREATE INDEX ON t (a)")
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				switch i % 4 {
				case 0:
					if _, err := db.Exec(fmt.Sprintf("SELECT a FROM t WHERE a = %d", i%100)); err != nil {
						errs <- err
						return
					}
				case 1:
					if _, err := db.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d, %d, %d)", g, i, g, i)); err != nil {
						errs <- err
						return
					}
				case 2:
					if _, err := db.Exec(fmt.Sprintf("UPDATE t SET b = %d WHERE a = %d", i, g)); err != nil {
						errs <- err
						return
					}
				default:
					if _, err := db.Exec("SELECT COUNT(*) FROM t"); err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := db.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestExecScript(t *testing.T) {
	db := New()
	script := `
-- schema
CREATE TABLE t (a INT, s STRING);

INSERT INTO t VALUES
 (1, 'one'),
 (2, 'two');
INSERT INTO t VALUES (3, 'three') -- trailing comment
`
	if err := db.ExecScript(strings.NewReader(script)); err != nil {
		t.Fatal(err)
	}
	if got := db.MustExec("SELECT COUNT(*) FROM t").Count; got != 3 {
		t.Errorf("rows = %d", got)
	}
	// Errors carry the line number.
	err := db.ExecScript(strings.NewReader("SELECT 1;\nNOT SQL;"))
	if err == nil || !strings.Contains(err.Error(), "line") {
		t.Errorf("script error = %v", err)
	}
}

func TestDropTable(t *testing.T) {
	db := New()
	db.MustExec("CREATE TABLE t (a INT)")
	db.MustExec("INSERT INTO t VALUES (1)")
	db.MustExec("CREATE INDEX ON t (a)")
	db.MustExec("DROP TABLE t")
	if _, err := db.Exec("SELECT * FROM t"); err == nil {
		t.Error("dropped table still queryable")
	}
	if _, err := db.Exec("DROP TABLE t"); err == nil {
		t.Error("double drop accepted")
	}
	// The name is reusable with a fresh schema.
	db.MustExec("CREATE TABLE t (x STRING)")
	db.MustExec("INSERT INTO t VALUES ('hi')")
	if got := db.MustExec("SELECT COUNT(*) FROM t").Count; got != 1 {
		t.Errorf("recreated table rows = %d", got)
	}
	if names, _ := db.IndexNames("t"); len(names) != 0 {
		t.Errorf("old indexes leaked onto recreated table: %v", names)
	}
}
