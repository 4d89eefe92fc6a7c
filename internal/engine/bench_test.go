package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dyndesign/internal/cost"
	"dyndesign/internal/sql"
)

// The engine's working benchmarks: the three operations a replay spends
// its time in, each on the paper's table shape at 100 000 rows. They are
// for working on the executor; bench/e2e and bench/history hold the
// recorded numbers.
//
//	go test -run '^$' -bench 'HeapScan|IndexOnlyScan|CreateIndex' ./internal/engine

const benchRows = 100000

// benchDB loads t(a, b, c, d) with benchRows uniform rows over
// [0, benchRows/5), the domain the paper's table uses, and analyzes it.
func benchDB(b *testing.B) *Database {
	b.Helper()
	db := New()
	db.MustExec("CREATE TABLE t (a INT, b INT, c INT, d INT)")
	rng := rand.New(rand.NewSource(1))
	domain := benchRows / 5
	var sb strings.Builder
	for loaded := 0; loaded < benchRows; loaded += 500 {
		sb.Reset()
		sb.WriteString("INSERT INTO t VALUES ")
		for i := 0; i < 500; i++ {
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

// benchSelect runs query n times after checking it plans as kind.
func benchSelect(b *testing.B, db *Database, query string, kind cost.AccessKind) {
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
		if _, err := db.ExecStmt(stmt); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchRows, "ns/row")
}

// BenchmarkHeapScanPointPredicate: a point query with no index, the
// replay's most frequent statement.
func BenchmarkHeapScanPointPredicate(b *testing.B) {
	benchSelect(b, benchDB(b), "SELECT c FROM t WHERE c = 17", cost.HeapScan)
}

// BenchmarkIndexOnlyScanNonLeading: a point query on the second column
// of a two-column index, answered by scanning every leaf.
func BenchmarkIndexOnlyScanNonLeading(b *testing.B) {
	db := benchDB(b)
	db.MustExec("CREATE INDEX ON t (a, b)")
	benchSelect(b, db, "SELECT b FROM t WHERE b = 17", cost.IndexOnlyScan)
}

// BenchmarkCreateIndex: the online build of a one-column index; the drop
// that makes room for the next iteration is not timed.
func BenchmarkCreateIndex(b *testing.B) {
	db := benchDB(b)
	create, drop := sql.MustParse("CREATE INDEX ON t (c)"), sql.MustParse("DROP INDEX I(c) ON t")
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
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchRows, "ns/row")
}
