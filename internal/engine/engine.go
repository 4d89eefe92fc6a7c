// Package engine ties the substrates together into an embedded relational
// database: it owns the catalog, heap files, indexes, and statistics of a
// database, parses and plans SQL, and executes it while charging logical
// page accesses to a single AccessStats counter.
//
// The engine plays the role Microsoft SQL Server 2005 played in the
// paper's experiments: the system whose physical design (set of secondary
// indexes) the advisor tunes, and on which workloads are executed to
// measure the effect of a design sequence.
package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"dyndesign/internal/catalog"
	"dyndesign/internal/cost"
	"dyndesign/internal/index"
	"dyndesign/internal/sql"
	"dyndesign/internal/stats"
	"dyndesign/internal/storage"
	"dyndesign/internal/types"
)

// Database is an embedded database instance.
type Database struct {
	mu     sync.Mutex
	cat    *catalog.Catalog
	access storage.AccessStats
	tables map[string]*tableData // lower(name) -> data
}

// tableData binds a catalog table to its physical structures.
type tableData struct {
	meta    *catalog.Table
	heap    *storage.HeapFile
	indexes *index.Manager
	tstats  *stats.TableStats // nil until ANALYZE
}

// New creates an empty database.
func New() *Database {
	return &Database{
		cat:    catalog.New(),
		tables: make(map[string]*tableData),
	}
}

// AccessStats returns the database-wide logical page access counter. It
// is the measured execution cost of everything the database does,
// including index builds.
func (db *Database) AccessStats() *storage.AccessStats { return &db.access }

// Catalog returns the database's catalog.
func (db *Database) Catalog() *catalog.Catalog { return db.cat }

// Result is the outcome of executing one statement.
type Result struct {
	// Columns names the result columns of a SELECT.
	Columns []string
	// Rows holds the result rows of a SELECT (nil for COUNT(*); see
	// Count).
	Rows []types.Row
	// Count is the COUNT(*) value, or the number of rows affected by
	// DML.
	Count int64
	// Plan describes how a SELECT/UPDATE/DELETE located its rows.
	Plan *Plan
}

// Plan records the chosen access path for EXPLAIN and for tests.
type Plan struct {
	Table    string
	Access   cost.Access
	Residual []sql.Comparison
}

// String renders the plan as a compact EXPLAIN line.
func (p *Plan) String() string {
	s := p.Access.String()
	if len(p.Residual) > 0 {
		parts := make([]string, len(p.Residual))
		for i, c := range p.Residual {
			parts[i] = c.String()
		}
		s += " filter(" + strings.Join(parts, " AND ") + ")"
	}
	return s
}

// Exec parses and executes one SQL statement.
func (db *Database) Exec(sqlText string) (*Result, error) {
	stmt, err := sql.Parse(sqlText)
	if err != nil {
		return nil, err
	}
	return db.ExecStmt(stmt)
}

// MustExec is Exec that panics on error, for fixtures and examples.
func (db *Database) MustExec(sqlText string) *Result {
	r, err := db.Exec(sqlText)
	if err != nil {
		panic(err)
	}
	return r
}

// ExecStmt executes a parsed statement.
func (db *Database) ExecStmt(stmt sql.Statement) (*Result, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.execStmtLocked(stmt)
}

// MeasureStmt executes a parsed statement and returns the logical page
// accesses it alone performed. The before/after AccessStats snapshots
// are taken inside the database lock, so concurrent executions can
// never leak into the delta — this is the scoped capture the
// calibration layer pairs with what-if estimates. The delta includes
// everything the statement did (e.g. an index build's writes for
// CREATE INDEX), matching how AccessStats meters the database.
func (db *Database) MeasureStmt(stmt sql.Statement) (*Result, storage.AccessSnapshot, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	before := db.access.Snapshot()
	res, err := db.execStmtLocked(stmt)
	return res, db.access.Snapshot().Sub(before), err
}

func (db *Database) execStmtLocked(stmt sql.Statement) (*Result, error) {
	switch s := stmt.(type) {
	case *sql.Explain:
		td, err := db.table(s.Query.Table)
		if err != nil {
			return nil, err
		}
		plan, err := db.planSelectLocked(td, s.Query)
		if err != nil {
			return nil, err
		}
		return &Result{
			Columns: []string{"plan"},
			Rows:    []types.Row{{types.NewString(plan.String())}},
			Count:   1,
			Plan:    plan,
		}, nil
	case *sql.CreateTable:
		return db.execCreateTable(s)
	case *sql.CreateIndex:
		return db.execCreateIndex(s)
	case *sql.DropIndex:
		return db.execDropIndex(s)
	case *sql.DropTable:
		return db.execDropTable(s)
	case *sql.Insert:
		return db.execInsert(s)
	case *sql.Select:
		return db.execSelect(s)
	case *sql.Update:
		return db.execUpdate(s)
	case *sql.Delete:
		return db.execDelete(s)
	default:
		return nil, fmt.Errorf("engine: unsupported statement %T", stmt)
	}
}

func (db *Database) table(name string) (*tableData, error) {
	td, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("engine: table %q does not exist", name)
	}
	return td, nil
}

func (db *Database) execCreateTable(s *sql.CreateTable) (*Result, error) {
	cols := make([]types.Column, len(s.Columns))
	for i, c := range s.Columns {
		cols[i] = types.Column{Name: c.Name, Kind: c.Kind}
	}
	schema, err := types.NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	meta, err := db.cat.CreateTable(s.Table, schema)
	if err != nil {
		return nil, err
	}
	heap := storage.NewHeapFile(&db.access)
	db.tables[strings.ToLower(s.Table)] = &tableData{
		meta:    meta,
		heap:    heap,
		indexes: index.NewManager(schema, heap),
	}
	return &Result{}, nil
}

func (db *Database) execCreateIndex(s *sql.CreateIndex) (*Result, error) {
	td, err := db.table(s.Table)
	if err != nil {
		return nil, err
	}
	def := catalog.IndexDef{Table: td.meta.Name, Columns: s.Columns}
	if err := db.cat.AddIndex(def); err != nil {
		return nil, err
	}
	if _, err := td.indexes.Create(def); err != nil {
		// Roll back the catalog entry so metadata stays consistent.
		_ = db.cat.DropIndex(def.Table, def.Name())
		return nil, err
	}
	return &Result{}, nil
}

func (db *Database) execDropIndex(s *sql.DropIndex) (*Result, error) {
	td, err := db.table(s.Table)
	if err != nil {
		return nil, err
	}
	if err := db.cat.DropIndex(td.meta.Name, s.Name); err != nil {
		return nil, err
	}
	if err := td.indexes.Drop(s.Name); err != nil {
		return nil, err
	}
	// Dropping is a metadata operation; charge one catalog page write.
	db.access.Write(1)
	return &Result{}, nil
}

func (db *Database) execDropTable(s *sql.DropTable) (*Result, error) {
	td, err := db.table(s.Table)
	if err != nil {
		return nil, err
	}
	if err := db.cat.DropTable(td.meta.Name); err != nil {
		return nil, err
	}
	delete(db.tables, strings.ToLower(s.Table))
	db.access.Write(1)
	return &Result{}, nil
}

func (db *Database) execInsert(s *sql.Insert) (*Result, error) {
	td, err := db.table(s.Table)
	if err != nil {
		return nil, err
	}
	schema := td.meta.Schema
	// Every row passes the check before any is written.
	if err := td.meta.CheckStatement(s); err != nil {
		return nil, err
	}
	// Map target columns to schema order.
	order := make([]int, schema.Len())
	for i := range order {
		order[i] = i
	}
	for pos, name := range s.Columns {
		order[schema.ColumnIndex(name)] = pos
	}
	var inserted int64
	for _, given := range s.Rows {
		row := make(types.Row, schema.Len())
		for ord := range row {
			row[ord] = given[order[ord]]
		}
		payload, err := types.EncodeRow(nil, row)
		if err != nil {
			return nil, err
		}
		rid, err := td.heap.Insert(payload)
		if err != nil {
			return nil, err
		}
		if err := td.indexes.OnInsert(row, rid); err != nil {
			return nil, err
		}
		inserted++
	}
	return &Result{Count: inserted}, nil
}

// Analyze builds statistics for a table, like SQL's ANALYZE/UPDATE
// STATISTICS. The advisor requires analyzed tables.
func (db *Database) Analyze(table string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	td, err := db.table(table)
	if err != nil {
		return err
	}
	ts, err := stats.Build(td.meta.Name, td.meta.Schema, td.heap, stats.DefaultBuckets)
	if err != nil {
		return err
	}
	td.tstats = ts
	return nil
}

// TableStats returns the statistics of an analyzed table, or nil.
func (db *Database) TableStats(table string) *stats.TableStats {
	db.mu.Lock()
	defer db.mu.Unlock()
	td, err := db.table(table)
	if err != nil {
		return nil
	}
	return td.tstats
}

// TablePhys builds the physical description of a table for the cost
// model, using actual heap page counts and whatever statistics exist.
func (db *Database) TablePhys(table string) (cost.TablePhys, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	td, err := db.table(table)
	if err != nil {
		return cost.TablePhys{}, err
	}
	return db.tablePhysLocked(td), nil
}

// TableSize returns a function that reports a table's live row and page
// counts. The function reads the table's heap counters only, never the
// database lock, so it answers while another goroutine runs a statement:
// the advisor prices every problem at the table's current size without
// waiting for a replay's index build.
func (db *Database) TableSize(table string) (func() (rows int64, pages int), error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	td, err := db.table(table)
	if err != nil {
		return nil, err
	}
	heap := td.heap
	return func() (int64, int) { return heap.NumRows(), heap.NumPages() }, nil
}

func (db *Database) tablePhysLocked(td *tableData) cost.TablePhys {
	return cost.TablePhys{
		Name:      td.meta.Name,
		Schema:    td.meta.Schema,
		Rows:      float64(td.heap.NumRows()),
		HeapPages: float64(td.heap.NumPages()),
		Stats:     td.tstats,
	}
}

// indexPhysLocked describes the real indexes of a table.
func (db *Database) indexPhysLocked(td *tableData) []cost.IndexPhys {
	var out []cost.IndexPhys
	for _, ix := range td.indexes.All() {
		keyBytes := 0
		for _, ord := range ix.KeyColumns() {
			kind := td.meta.Schema.Columns[ord].Kind
			if kind == types.KindInt {
				keyBytes += 9
			} else {
				keyBytes += 19
			}
		}
		out = append(out, cost.IndexPhys{
			Def:        ix.Def(),
			KeyCols:    ix.KeyColumns(),
			KeyBytes:   keyBytes,
			Height:     float64(ix.Height()),
			LeafPages:  float64(ix.LeafPages()),
			TotalPages: float64(ix.SizePages()),
		})
	}
	return out
}

// IndexNames returns the canonical names of the materialized indexes on
// a table, sorted.
func (db *Database) IndexNames(table string) ([]string, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	td, err := db.table(table)
	if err != nil {
		return nil, err
	}
	return td.indexes.Names(), nil
}

// Explain plans a SELECT and returns the plan without executing it.
func (db *Database) Explain(sqlText string) (*Plan, error) {
	stmt, err := sql.Parse(sqlText)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sql.Select)
	if !ok {
		return nil, fmt.Errorf("engine: EXPLAIN supports only SELECT, got %T", stmt)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	td, err := db.table(sel.Table)
	if err != nil {
		return nil, err
	}
	return db.planSelectLocked(td, sel)
}

func (db *Database) planSelectLocked(td *tableData, sel *sql.Select) (*Plan, error) {
	t := db.tablePhysLocked(td)
	access, err := cost.ChooseAccess(sel, t, db.indexPhysLocked(td))
	if err != nil {
		return nil, err
	}
	plan := &Plan{Table: td.meta.Name, Access: access}
	consumed := make(map[int]bool, len(access.Consumed))
	for _, ci := range access.Consumed {
		consumed[ci] = true
	}
	if sel.Where != nil {
		for ci, c := range sel.Where.Conjuncts {
			if !consumed[ci] {
				plan.Residual = append(plan.Residual, c)
			}
		}
	}
	return plan, nil
}

// CheckInvariants verifies heap and index consistency for every table:
// each index has exactly one entry per live row, and the trees are
// structurally sound. Tests call this after workloads.
func (db *Database) CheckInvariants() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		td := db.tables[n]
		if err := td.heap.CheckInvariants(); err != nil {
			return err
		}
		for _, ix := range td.indexes.All() {
			if err := ix.CheckInvariants(); err != nil {
				return err
			}
			if ix.Entries() != td.heap.NumRows() {
				return fmt.Errorf("engine: index %s has %d entries, heap has %d rows",
					ix.Def().Name(), ix.Entries(), td.heap.NumRows())
			}
		}
	}
	return nil
}
