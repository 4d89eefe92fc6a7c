package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dyndesign/internal/catalog"
	"dyndesign/internal/cost"
	"dyndesign/internal/sql"
	"dyndesign/internal/storage"
	"dyndesign/internal/types"
)

// The engine's working benchmarks: the three operations a replay spends
// its time in, each on the paper's table shape over a table-size axis
// from 5k to 100k rows (≈ 30 to 530 heap pages, ≈ 30 to 450 leaves of
// a two-column index). Every scan and build runs on the caller, so the
// per-row cost should stay flat along the axis. They are for working on
// the executor; bench/e2e and bench/history hold the recorded numbers.
//
//	go test -run '^$' -bench 'HeapScan|IndexOnlyScan|CreateIndex' ./internal/engine

// benchSizes is the table-size axis.
var benchSizes = []int{5000, 10000, 20000, 100000}

// benchDB loads t(a, b, c, d) with rows uniform rows over [0, rows/5),
// the domain the paper's table uses, and analyzes it.
func benchDB(b *testing.B, rows int) *Database {
	b.Helper()
	db := New()
	db.MustExec("CREATE TABLE t (a INT, b INT, c INT, d INT)")
	rng := rand.New(rand.NewSource(1))
	domain := rows / 5
	var sb strings.Builder
	for loaded := 0; loaded < rows; loaded += 500 {
		sb.Reset()
		sb.WriteString("INSERT INTO t VALUES ")
		for i := 0; i < min(500, rows-loaded); i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d, %d, %d)", rng.Intn(domain), rng.Intn(domain), rng.Intn(domain), rng.Intn(domain))
		}
		db.MustExec(sb.String())
	}
	if err := db.Analyze("t"); err != nil {
		b.Fatal(err)
	}
	return db
}

// eachSize runs bench as one sub-benchmark per table size.
func eachSize(b *testing.B, bench func(b *testing.B, rows int)) {
	for _, rows := range benchSizes {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) { bench(b, rows) })
	}
}

// benchSelect runs query n times after checking it plans as kind. With
// touch set it calls touch, untimed, before each run.
func benchSelect(b *testing.B, db *Database, rows int, query string, kind cost.AccessKind, touch func()) {
	b.Helper()
	stmt := sql.MustParse(query)
	plan, err := db.Explain(query)
	if err != nil {
		b.Fatal(err)
	}
	if plan.Access.Kind != kind {
		b.Fatalf("%s plans as %v", query, plan)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if touch != nil {
			b.StopTimer()
			touch()
			b.StartTimer()
		}
		if _, err := db.ExecStmt(stmt); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
}

// benchPointScans runs the point query format (one %d) as six
// sub-benchmarks, each warm, the table unchanged between runs, and cold,
// after touch has changed every page or leaf the scan reads. The
// literals: 17, which lies below nearly every page's and leaf's min, so
// that it times the min/max skip and not the row loop; the mid-domain
// rows/10, which lies inside nearly every page's and leaf's [min, max];
// and absent, a mid-domain literal no row holds (picked untimed), which
// the bucket bitmaps of most pages and leaves rule out.
func benchPointScans(b *testing.B, db *Database, rows int, format string, kind cost.AccessKind, touch func()) {
	lits := []struct {
		name string
		lit  int
	}{{"17", 17}, {fmt.Sprint(rows / 10), rows / 10}, {"absent", absentLiteral(b, db, rows, format)}}
	for _, l := range lits {
		query := fmt.Sprintf(format, l.lit)
		for _, cold := range []bool{false, true} {
			name := fmt.Sprintf("lit=%s/warm", l.name)
			var before func()
			if cold {
				name, before = fmt.Sprintf("lit=%s/cold", l.name), touch
			}
			b.Run(name, func(b *testing.B) { benchSelect(b, db, rows, query, kind, before) })
		}
	}
}

// absentLiteral returns the first literal from rows/10 up, wrapping
// around the domain [0, rows/5), for which the point query format
// returns no row.
func absentLiteral(b *testing.B, db *Database, rows int, format string) int {
	b.Helper()
	domain := rows / 5
	for i := range domain {
		lit := (rows/10 + i) % domain
		res, err := db.Exec(fmt.Sprintf(format, lit))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			return lit
		}
	}
	b.Fatalf("every literal in [0, %d) is held by some row", domain)
	return 0
}

// touchPages returns a function that rewrites one row of every heap page
// of t in place, unchanged: the cheapest write that reaches every page.
func touchPages(b *testing.B, db *Database) func() {
	heap := db.tables["t"].heap
	var rids []storage.RID
	heap.Scan(func(rid storage.RID, _ []byte) bool {
		if len(rids) == 0 || rids[len(rids)-1].Page != rid.Page {
			rids = append(rids, rid)
		}
		return true
	})
	return func() {
		for _, rid := range rids {
			payload, err := heap.Get(rid)
			if err == nil {
				_, err = heap.Update(rid, payload)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// touchLeaves returns a function that deletes and re-inserts every
// 100th entry of the index on (a, b): fewer entries than any leaf but the
// last holds, so every leaf changes and none splits.
func touchLeaves(b *testing.B, db *Database) func() {
	td := db.tables["t"]
	ix, _ := td.indexes.Get(catalog.IndexDef{Table: "t", Columns: []string{"a", "b"}}.Name())
	var rows []matchedRow
	n := 0
	ix.ScanKeys(nil, nil, func(_ []byte, rid storage.RID) bool {
		if n%100 == 0 {
			payload, err := td.heap.Get(rid)
			var row types.Row
			if err == nil {
				row, err = types.DecodeRow(payload)
			}
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, matchedRow{rid: rid, row: row})
		}
		n++
		return true
	})
	return func() {
		for _, r := range rows {
			if err := ix.Delete(r.row, r.rid); err != nil {
				b.Fatal(err)
			}
			if err := ix.Insert(r.row, r.rid); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkHeapScanPointPredicate: a point query with no index, the
// replay's most frequent statement.
func BenchmarkHeapScanPointPredicate(b *testing.B) {
	eachSize(b, func(b *testing.B, rows int) {
		db := benchDB(b, rows)
		benchPointScans(b, db, rows, "SELECT c FROM t WHERE c = %d", cost.HeapScan, touchPages(b, db))
	})
}

// BenchmarkIndexOnlyScanNonLeading: a point query on the second column
// of a two-column index, answered by scanning every leaf.
func BenchmarkIndexOnlyScanNonLeading(b *testing.B) {
	eachSize(b, func(b *testing.B, rows int) {
		db := benchDB(b, rows)
		db.MustExec("CREATE INDEX ON t (a, b)")
		benchPointScans(b, db, rows, "SELECT b FROM t WHERE b = %d", cost.IndexOnlyScan, touchLeaves(b, db))
	})
}

// BenchmarkCreateIndex: the online build of a one-column index (c) and
// of the two-column index (a, b), the replay's slowest build; the drop
// that makes room for the next iteration is not timed.
func BenchmarkCreateIndex(b *testing.B) {
	for _, cols := range []string{"c", "a, b"} {
		b.Run("cols="+strings.ReplaceAll(cols, ", ", ","), func(b *testing.B) {
			eachSize(b, func(b *testing.B, rows int) {
				db := benchDB(b, rows)
				create := sql.MustParse("CREATE INDEX ON t (" + cols + ")")
				drop := sql.MustParse("DROP INDEX I(" + strings.ReplaceAll(cols, " ", "") + ") ON t")
				b.ResetTimer()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := db.ExecStmt(create); err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					if _, err := db.ExecStmt(drop); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
			})
		})
	}
}
