// Package catalog maintains the metadata of a database: table schemas and
// index definitions. It is purely descriptive — physical structures (heap
// files, B+-trees) are owned by the engine, which keeps them in sync with
// the catalog. The catalog is versioned: every DDL operation bumps the
// version, which lets cached plans and cost matrices detect staleness.
package catalog

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"dyndesign/internal/sql"
	"dyndesign/internal/types"
)

// IndexDef describes a secondary index: an ordered list of key columns on
// one table. The canonical name of an index on columns (a, b) of table t
// is "I(a,b)"; names are unique per table.
type IndexDef struct {
	Table   string
	Columns []string
}

// Name returns the canonical index name, e.g. "I(a,b)".
func (d IndexDef) Name() string {
	return "I(" + strings.Join(d.Columns, ",") + ")"
}

// Equal reports whether two definitions index the same columns of the
// same table in the same order.
func (d IndexDef) Equal(o IndexDef) bool {
	if !strings.EqualFold(d.Table, o.Table) || len(d.Columns) != len(o.Columns) {
		return false
	}
	for i := range d.Columns {
		if !strings.EqualFold(d.Columns[i], o.Columns[i]) {
			return false
		}
	}
	return true
}

// ParseIndexName parses a canonical index name like "I(a,b)" into its
// column list.
func ParseIndexName(name string) ([]string, error) {
	if !strings.HasPrefix(name, "I(") || !strings.HasSuffix(name, ")") {
		return nil, fmt.Errorf("catalog: %q is not a canonical index name (want \"I(col,...)\")", name)
	}
	inner := name[2 : len(name)-1]
	if inner == "" {
		return nil, fmt.Errorf("catalog: index name %q has no columns", name)
	}
	cols := strings.Split(inner, ",")
	for i := range cols {
		cols[i] = strings.TrimSpace(cols[i])
		if cols[i] == "" {
			return nil, fmt.Errorf("catalog: index name %q has an empty column", name)
		}
	}
	return cols, nil
}

// Table is the catalog entry for one table.
type Table struct {
	Name   string
	Schema *types.Schema
}

// CheckStatement binds stmt to the table as the engine does before it
// touches a row: the statement must name the table, case-insensitively
// as the catalog resolves names; an INSERT must name each column once,
// if it names any, and give every row a value of each column's kind; an
// UPDATE must SET known columns to values of their kinds. The what-if
// coster calls it too, so the advisor accepts exactly the writes the
// engine executes. Select lists and WHERE clauses are the planner's to
// check; statements other than SELECT, INSERT, UPDATE and DELETE pass.
func (t *Table) CheckStatement(stmt sql.Statement) error {
	var table string
	var err error
	switch s := stmt.(type) {
	case *sql.Select:
		table = s.Table
	case *sql.Insert:
		table, err = s.Table, t.checkInsert(s)
	case *sql.Update:
		table = s.Table
		for _, a := range s.Set {
			if err = t.checkValue(a.Column, a.Value); err != nil {
				break
			}
		}
	case *sql.Delete:
		table = s.Table
	default:
		return nil
	}
	if strings.ToLower(table) != strings.ToLower(t.Name) {
		return fmt.Errorf("catalog: statement names table %q, not %q", table, t.Name)
	}
	return err
}

func (t *Table) checkInsert(s *sql.Insert) error {
	n := t.Schema.Len()
	if len(s.Columns) > 0 && len(s.Columns) != n {
		return fmt.Errorf("catalog: INSERT names %d of %d columns", len(s.Columns), n)
	}
	for pos, name := range s.Columns {
		if slices.ContainsFunc(s.Columns[:pos], func(prev string) bool { return strings.EqualFold(prev, name) }) {
			return fmt.Errorf("catalog: column %q named twice", name)
		}
	}
	for r, row := range s.Rows {
		if len(row) != n {
			return fmt.Errorf("catalog: row %d has %d values, table has %d columns", r, len(row), n)
		}
		for pos, v := range row {
			name := t.Schema.Columns[pos].Name
			if len(s.Columns) > 0 {
				name = s.Columns[pos]
			}
			if err := t.checkValue(name, v); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkValue checks that the table has the named column and v its kind.
func (t *Table) checkValue(name string, v types.Value) error {
	ord := t.Schema.ColumnIndex(name)
	if ord < 0 {
		return fmt.Errorf("catalog: unknown column %q", name)
	}
	if kind := t.Schema.Columns[ord].Kind; kind != v.Kind {
		return fmt.Errorf("catalog: column %q expects %s, got %s", name, kind, v.Kind)
	}
	return nil
}

// Catalog is the metadata store. It is safe for concurrent use.
type Catalog struct {
	mu      sync.RWMutex
	tables  map[string]*Table   // lower(name) -> table
	indexes map[string]IndexDef // lower(table) + "\x00" + lower(index name) -> def
	version int64
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{
		tables:  make(map[string]*Table),
		indexes: make(map[string]IndexDef),
	}
}

// Version returns the current catalog version; it increases on every DDL.
func (c *Catalog) Version() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.version
}

func indexKey(table, name string) string {
	return strings.ToLower(table) + "\x00" + strings.ToLower(name)
}

// CreateTable registers a table. The name must be unused.
func (c *Catalog) CreateTable(name string, schema *types.Schema) (*Table, error) {
	if name == "" {
		return nil, fmt.Errorf("catalog: empty table name")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	if _, exists := c.tables[key]; exists {
		return nil, fmt.Errorf("catalog: table %q already exists", name)
	}
	t := &Table{Name: name, Schema: schema}
	c.tables[key] = t
	c.version++
	return t, nil
}

// DropTable removes a table and all of its index definitions.
func (c *Catalog) DropTable(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	if _, exists := c.tables[key]; !exists {
		return fmt.Errorf("catalog: table %q does not exist", name)
	}
	delete(c.tables, key)
	prefix := key + "\x00"
	for k := range c.indexes {
		if strings.HasPrefix(k, prefix) {
			delete(c.indexes, k)
		}
	}
	c.version++
	return nil
}

// Table looks up a table by name (case-insensitive).
func (c *Catalog) Table(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("catalog: table %q does not exist", name)
	}
	return t, nil
}

// Tables returns all tables, sorted by name.
func (c *Catalog) Tables() []*Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Table, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// AddIndex registers an index definition after validating that the table
// exists, every key column exists, and no equivalent index is present.
func (c *Catalog) AddIndex(def IndexDef) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[strings.ToLower(def.Table)]
	if !ok {
		return fmt.Errorf("catalog: table %q does not exist", def.Table)
	}
	if len(def.Columns) == 0 {
		return fmt.Errorf("catalog: index on %q has no columns", def.Table)
	}
	seen := make(map[string]struct{}, len(def.Columns))
	for _, col := range def.Columns {
		if t.Schema.ColumnIndex(col) < 0 {
			return fmt.Errorf("catalog: table %q has no column %q", def.Table, col)
		}
		lower := strings.ToLower(col)
		if _, dup := seen[lower]; dup {
			return fmt.Errorf("catalog: index repeats column %q", col)
		}
		seen[lower] = struct{}{}
	}
	key := indexKey(def.Table, def.Name())
	if _, exists := c.indexes[key]; exists {
		return fmt.Errorf("catalog: index %s on %q already exists", def.Name(), def.Table)
	}
	c.indexes[key] = def
	c.version++
	return nil
}

// DropIndex removes an index definition by canonical name.
func (c *Catalog) DropIndex(table, name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := indexKey(table, name)
	if _, exists := c.indexes[key]; !exists {
		return fmt.Errorf("catalog: index %s on %q does not exist", name, table)
	}
	delete(c.indexes, key)
	c.version++
	return nil
}

// Index looks up an index definition by table and canonical name.
func (c *Catalog) Index(table, name string) (IndexDef, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	def, ok := c.indexes[indexKey(table, name)]
	return def, ok
}

// TableIndexes returns the index definitions on a table, sorted by name.
func (c *Catalog) TableIndexes(table string) []IndexDef {
	c.mu.RLock()
	defer c.mu.RUnlock()
	prefix := strings.ToLower(table) + "\x00"
	var out []IndexDef
	for k, def := range c.indexes {
		if strings.HasPrefix(k, prefix) {
			out = append(out, def)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}
