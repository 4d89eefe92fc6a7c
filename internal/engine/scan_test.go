package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"dyndesign/internal/catalog"
	"dyndesign/internal/cost"
	"dyndesign/internal/sql"
	"dyndesign/internal/storage"
	"dyndesign/internal/types"
)

// Full scans and the statements built on them against the
// decode-then-evaluate oracle, on a table of hundreds of heap pages and
// index leaves that deletes emptied and updates moved rows across.

// bigRows is large enough that the heap and the (g, s) index both span
// hundreds of pages.
const bigRows = 30000

// longS is the string a growing update writes: rows it reaches move.
var longS = strings.Repeat("m", 60)

// bigDB loads t(id, g, s) with bigRows rows in id order and builds the
// two-column index (g, s), whose keys repeat thousands of times. Then it
// empties a run of whole pages (a contiguous id range), deletes the rows
// of one g scattered over every page, and grows the strings of another
// g so that those rows move to later pages.
func bigDB(t testing.TB) *Database {
	t.Helper()
	db := New()
	db.MustExec("CREATE TABLE t (id INT, g INT, s STRING)")
	rng := rand.New(rand.NewSource(3))
	var sb strings.Builder
	for id := 0; id < bigRows; id += 1000 {
		sb.Reset()
		sb.WriteString("INSERT INTO t VALUES ")
		for i := id; i < id+1000; i++ {
			if i > id {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d, '%s')", i, rng.Intn(20), "abc"[rng.Intn(3):])
		}
		db.MustExec(sb.String())
	}
	db.MustExec("CREATE INDEX ON t (g, s)")
	db.MustExec("DELETE FROM t WHERE id >= 3000 AND id < 9000")
	db.MustExec("DELETE FROM t WHERE g = 7")
	db.MustExec(fmt.Sprintf("UPDATE t SET s = '%s' WHERE g = 3", longS))
	if err := db.Analyze("t"); err != nil {
		t.Fatal(err)
	}
	td := db.tables["t"]
	ix, _ := td.indexes.Get(catalog.IndexDef{Table: "t", Columns: []string{"g", "s"}}.Name())
	if pages, leaves := td.heap.NumPages(), ix.LeafPages(); pages < 100 || leaves < 100 {
		t.Fatalf("%d heap pages and %d leaves: too few", pages, leaves)
	}
	return db
}

// TestScanEquivalenceLargeTable: on a heap with deleted rows, emptied
// pages and moved rows, and a two-column index with duplicate keys, heap
// scans and index-only scans (covering, or fetching the heap) return the
// oracle's rows in its order and charge what it charges.
func TestScanEquivalenceLargeTable(t *testing.T) {
	db := bigDB(t)
	td := db.tables["t"]
	def := catalog.IndexDef{Table: "t", Columns: []string{"g", "s"}}
	eq := func(col string, v types.Value) sql.Comparison {
		return sql.Comparison{Column: col, Op: sql.OpEq, Value: v}
	}
	residuals := [][]sql.Comparison{
		nil, // every row
		{eq("g", types.NewInt(5))},
		{eq("s", types.NewString("b"))},
		{eq("s", types.NewString(longS))},
		{{Column: "g", Op: sql.OpIn, Values: []types.Value{types.NewInt(1), types.NewInt(3), types.NewInt(19)}}},
		{{Column: "g", Op: sql.OpGe, Value: types.NewInt(15)}, {Column: "s", Op: sql.OpLe, Value: types.NewString("b")}},
		{{Column: "id", Op: sql.OpLt, Value: types.NewInt(200)}}, // matches on the first pages only
		{{Column: "id", Op: sql.OpGe, Value: types.NewInt(29800)}},
	}
	for _, residual := range residuals {
		var covered []sql.Comparison
		for _, c := range residual {
			if slices.Contains(def.Columns, c.Column) {
				covered = append(covered, c)
			}
		}
		ix := &cost.IndexPhys{Def: def}
		cases := []struct {
			plan     *Plan
			needHeap bool
		}{
			{&Plan{Table: "t", Access: cost.Access{Kind: cost.HeapScan}, Residual: residual}, false},
			{&Plan{Table: "t", Access: cost.Access{Kind: cost.HeapScan}, Residual: residual}, true},
			{&Plan{Table: "t", Access: cost.Access{Kind: cost.IndexOnlyScan, Index: ix}, Residual: residual}, true},
			{&Plan{Table: "t", Access: cost.Access{Kind: cost.IndexOnlyScan, Index: ix, Covering: true}, Residual: covered}, false},
		}
		for _, pc := range cases {
			before := db.access.Snapshot()
			got, err := db.collectRows(td, pc.plan, pc.needHeap)
			if err != nil {
				t.Fatalf("%s: %v", pc.plan, err)
			}
			charged := db.access.Snapshot().Sub(before)
			before = db.access.Snapshot()
			want := oracleCollectRows(t, td, pc.plan, pc.needHeap)
			if oracle := db.access.Snapshot().Sub(before); charged != oracle {
				t.Fatalf("%s: charged %+v, the oracle %+v", pc.plan, charged, oracle)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s (needHeap %v): %d rows, the oracle %d", pc.plan, pc.needHeap, len(got), len(want))
			}
		}
	}
}

// heapRows returns every live row of t in RID order.
func heapRows(t testing.TB, db *Database) []matchedRow {
	t.Helper()
	var out []matchedRow
	db.tables["t"].heap.Scan(func(rid storage.RID, payload []byte) bool {
		row, err := types.DecodeRow(payload)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, matchedRow{rid: rid, row: row})
		return true
	})
	return out
}

// checkTable checks the heap's and every index's invariants and that
// each index holds one entry per live row.
func checkTable(t testing.TB, db *Database) {
	t.Helper()
	td := db.tables["t"]
	if err := td.heap.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, ix := range td.indexes.All() {
		if err := ix.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", ix.Def().Name(), err)
		}
		if ix.Entries() != td.heap.NumRows() {
			t.Fatalf("%s holds %d entries for %d rows", ix.Def().Name(), ix.Entries(), td.heap.NumRows())
		}
	}
}

// TestDMLEquivalenceLargeTable: UPDATE and DELETE on the large table
// affect exactly the rows the oracle collects for their WHERE. A DELETE
// leaves every other row at its RID; after an UPDATE the table holds the
// rows it held with the assignments applied to those rows (some of
// which moved); afterwards the table passes its invariants.
func TestDMLEquivalenceLargeTable(t *testing.T) {
	db := bigDB(t)
	td := db.tables["t"]
	stmts := []struct{ head, where string }{
		{"UPDATE t SET s = '" + longS + "'", "id < 12000"}, // grows rows: moves
		{"UPDATE t SET g = 11", "s = 'c'"},                 // a non-leading index column
		{"DELETE FROM t", "id >= 20000"},                   // a tail of pages
		{"DELETE FROM t", "g = 11"},                        // scattered
		{"UPDATE t SET s = 'z'", "id >= 100"},              // shrinks in place
		{"DELETE FROM t", "s = '" + longS + "' AND id < 1000"},
	}
	byID := func(rows []matchedRow) []types.Row {
		out := make([]types.Row, len(rows))
		for i, m := range rows {
			out[i] = m.row
		}
		slices.SortFunc(out, func(a, b types.Row) int { return a[0].Compare(b[0]) })
		return out
	}
	kinds := map[cost.AccessKind]int{}
	for _, st := range stmts {
		text := st.head + " WHERE " + st.where
		stmt := sql.MustParse(text)
		// UPDATE and DELETE plan the SELECT * of their WHERE.
		plan, err := db.Explain("SELECT * FROM t WHERE " + st.where)
		if err != nil {
			t.Fatal(err)
		}
		kinds[plan.Access.Kind]++
		want := oracleCollectRows(t, td, plan, true)
		hit := make(map[storage.RID]bool, len(want))
		for _, m := range want {
			hit[m.rid] = true
		}
		var expect []matchedRow
		for _, m := range heapRows(t, db) {
			switch s := stmt.(type) {
			case *sql.Delete:
				if hit[m.rid] {
					continue
				}
			case *sql.Update:
				if hit[m.rid] {
					m.row = slices.Clone(m.row)
					for _, as := range s.Set {
						m.row[td.meta.Schema.ColumnIndex(as.Column)] = as.Value
					}
				}
			}
			expect = append(expect, m)
		}
		res, err := db.ExecStmt(stmt)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		if res.Count != int64(len(want)) {
			t.Fatalf("%s: %d rows, the oracle %d", text, res.Count, len(want))
		}
		checkTable(t, db)
		got := heapRows(t, db)
		if _, del := stmt.(*sql.Delete); del && !reflect.DeepEqual(got, expect) {
			t.Fatalf("%s: the table does not hold the other rows at their RIDs", text)
		}
		if !reflect.DeepEqual(byID(got), byID(expect)) {
			t.Fatalf("%s: the table does not hold the oracle's rows", text)
		}
	}
	if kinds[cost.HeapScan] == 0 {
		t.Fatalf("no statement ran a heap scan: %v", kinds)
	}
}

// TestScanFirstError: a heap scan fails with the error of the first
// corrupt payload it meets, returns no rows, and charges the pages up
// to and including that payload's page. The scan runs once before the
// payloads are written, so each lands on a page that has a column view.
func TestScanFirstError(t *testing.T) {
	db := bigDB(t)
	td := db.tables["t"]
	// The first live row of an early page and of a late one.
	var early, late storage.RID
	var latePayload []byte
	td.heap.Scan(func(rid storage.RID, payload []byte) bool {
		switch {
		case early == (storage.RID{}) && rid.Page >= 18:
			early = rid
		case rid.Page >= 82:
			late, latePayload = rid, append([]byte(nil), payload...)
			return false
		}
		return true
	})
	short, err := types.EncodeRow(nil, types.Row{types.NewInt(1)}) // one column: g is missing
	if err != nil {
		t.Fatal(err)
	}
	badTag := latePayload
	badTag[2] = 0x30 // the first value's kind tag
	plan := &Plan{Table: "t", Access: cost.Access{Kind: cost.HeapScan},
		Residual: []sql.Comparison{{Column: "g", Op: sql.OpEq, Value: types.NewInt(5)}}}
	if _, err := db.collectRows(td, plan, false); err != nil {
		t.Fatal(err)
	}
	for _, p := range []storage.PageID{early.Page, late.Page} {
		if !viewBuilt(td, p) {
			t.Fatalf("page %d has no column view", p)
		}
	}
	// The late payload alone, then the early one beside it.
	for _, step := range []struct {
		rid     *storage.RID
		payload []byte
	}{{&late, badTag}, {&early, short}} {
		if *step.rid, err = td.heap.Update(*step.rid, step.payload); err != nil {
			t.Fatal(err)
		}
		_, wantErr := rowFilterMatch(t, td, plan, step.payload)
		if wantErr == nil {
			t.Fatalf("payload % x passes the filter", step.payload)
		}
		before := db.access.Snapshot()
		got, err := db.collectRows(td, plan, false)
		charged := db.access.Snapshot().Sub(before)
		if err == nil || err.Error() != wantErr.Error() || got != nil {
			t.Fatalf("the scan returned %d rows and %v, want %v", len(got), err, wantErr)
		}
		if want := (storage.AccessSnapshot{Reads: int64(step.rid.Page) + 1}); charged != want {
			t.Fatalf("the scan stopped on page %d and charged %+v, want %+v", step.rid.Page, charged, want)
		}
	}
}

// rowFilterMatch tests one payload with the plan's residual.
func rowFilterMatch(t testing.TB, td *tableData, plan *Plan, payload []byte) (bool, error) {
	t.Helper()
	f, err := newRowFilter(td.meta.Schema, plan.Residual)
	if err != nil {
		t.Fatal(err)
	}
	return f.match(payload)
}

// viewBuilt reports whether heap page id of td holds a column view.
func viewBuilt(td *tableData, id storage.PageID) bool {
	built := false
	td.heap.ScanPages(func(p *storage.Page) bool {
		if p.ID() == id {
			v, _ := (*p.View()).(*colView)
			built = v != nil && len(v.cols) > 0
		}
		return true
	})
	return built
}

// TestConcurrentExecColumnViews: goroutines run SELECTs — heap scans and
// index-only scans, both served by column views — UPDATEs in place and
// INSERTs on one Database at once. Under -race it checks that the view
// slots a scan writes are ordered, by the database lock alone, with
// every later read and mutation of their pages and leaves; afterwards
// the table passes its invariants and both scans, run twice, return the
// oracle's rows.
func TestConcurrentExecColumnViews(t *testing.T) {
	const rows = 20000
	db := New()
	db.MustExec("CREATE TABLE t (a INT, b INT, c INT, d INT)")
	rng := rand.New(rand.NewSource(5))
	var sb strings.Builder
	for loaded := 0; loaded < rows; loaded += 1000 {
		sb.Reset()
		sb.WriteString("INSERT INTO t VALUES ")
		for i := loaded; i < loaded+1000; i++ {
			if i > loaded {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d, %d, %d)", i, rng.Intn(100), rng.Intn(100), rng.Intn(100))
		}
		db.MustExec(sb.String())
	}
	db.MustExec("CREATE INDEX ON t (a, b)")
	if err := db.Analyze("t"); err != nil {
		t.Fatal(err)
	}
	heapScan, indexScan := "SELECT c FROM t WHERE c = %d", "SELECT b FROM t WHERE b = %d"
	plans := map[string]cost.AccessKind{heapScan: cost.HeapScan, indexScan: cost.IndexOnlyScan}
	for format, kind := range plans {
		if plan, err := db.Explain(fmt.Sprintf(format, 7)); err != nil || plan.Access.Kind != kind {
			t.Fatalf("%s plans as %v (%v), want %v", format, plan, err, kind)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 40; i++ {
				var q string
				switch rng.Intn(5) {
				case 0, 1:
					q = fmt.Sprintf(heapScan, rng.Intn(100))
				case 2:
					q = fmt.Sprintf(indexScan, rng.Intn(100))
				case 3:
					q = fmt.Sprintf("UPDATE t SET %s = %d WHERE a = %d", "bc"[i%2:i%2+1], rng.Intn(100), rng.Intn(rows))
				default:
					q = fmt.Sprintf("INSERT INTO t VALUES (%d, %d, %d, %d)", rows+rng.Intn(rows), rng.Intn(100), rng.Intn(100), rng.Intn(100))
				}
				if _, err := db.Exec(q); err != nil {
					t.Errorf("%s: %v", q, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	checkTable(t, db)
	td := db.tables["t"]
	for format := range plans {
		plan, err := db.Explain(fmt.Sprintf(format, 42))
		if err != nil {
			t.Fatal(err)
		}
		want := oracleCollectRows(t, td, plan, false)
		for run := 0; run < 2; run++ {
			if got, err := db.collectRows(td, plan, false); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s run %d: %d rows (%v), the oracle %d", plan, run, len(got), err, len(want))
			}
		}
	}
}
