// Package cost implements the engine's cost model. It has two clients
// that must always agree:
//
//   - the planner, which costs access paths over the *real* indexes of a
//     table and picks the cheapest (ChooseAccess), and
//   - the design advisor's what-if interface, which costs statements
//     under *hypothetical* configurations that are never materialized
//     (CompilePlan) — this is EXEC(S,C) of the paper, plus the TRANS and
//     SIZE terms.
//
// Both derive a statement's shape once (shapeSelect) and price each
// index's best path with the same function (indexAccess), so a plan
// table's cost of a configuration is the page cost of the access the
// planner would choose over that configuration's indexes, plus for DML
// the per-row maintenance: "what the advisor assumed" and "what
// execution pays" are the same quantity, logical page accesses.
package cost

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"dyndesign/internal/btree"
	"dyndesign/internal/catalog"
	"dyndesign/internal/sql"
	"dyndesign/internal/stats"
	"dyndesign/internal/storage"
	"dyndesign/internal/types"
)

// Default selectivities used when no statistics are available.
const (
	defaultEqSelectivity    = 0.005
	defaultRangeSelectivity = 0.3
)

// encodedValueBytes estimates the encoded key width of one column.
func encodedValueBytes(kind types.Kind) int {
	switch kind {
	case types.KindInt:
		return 9 // tag + 8 bytes
	default:
		return 19 // tag + ~16 payload + terminator
	}
}

// TablePhys is the physical description of a table: what the cost model
// needs to know about it.
type TablePhys struct {
	Name      string
	Schema    *types.Schema
	Rows      float64
	HeapPages float64
	Stats     *stats.TableStats // nil disables statistics-based estimates
}

// check is the engine's check of stmt against the table's catalog entry.
func (t TablePhys) check(stmt sql.Statement) error {
	return (&catalog.Table{Name: t.Name, Schema: t.Schema}).CheckStatement(stmt)
}

// IndexPhys is the physical description of an index, real or
// hypothetical.
type IndexPhys struct {
	Def        catalog.IndexDef
	KeyCols    []int // ordinals of key columns in the table schema
	KeyBytes   int   // encoded composite key width
	Height     float64
	LeafPages  float64
	TotalPages float64 // SIZE(·) contribution in pages
}

// Covers reports whether every ordinal in need appears among the index
// key columns.
func (ip *IndexPhys) Covers(need []int) bool {
	for _, n := range need {
		found := false
		for _, c := range ip.KeyCols {
			if c == n {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// HypotheticalIndex predicts the physical shape of an index that does not
// exist, from the table description alone. This is the what-if half of
// the model: the prediction uses the same fill factors as a real bulk
// load, so a subsequently built index matches it closely.
func HypotheticalIndex(def catalog.IndexDef, t TablePhys) (IndexPhys, error) {
	ip := IndexPhys{Def: def}
	for _, name := range def.Columns {
		ord := t.Schema.ColumnIndex(name)
		if ord < 0 {
			return IndexPhys{}, fmt.Errorf("cost: table %q has no column %q", t.Name, name)
		}
		ip.KeyCols = append(ip.KeyCols, ord)
		ip.KeyBytes += encodedValueBytes(t.Schema.Columns[ord].Kind)
	}
	rows := int64(t.Rows)
	ip.LeafPages = float64(btree.EstimateLeafPages(ip.KeyBytes, rows))
	ip.Height = float64(btree.EstimateHeight(ip.KeyBytes, rows))
	ip.TotalPages = float64(btree.EstimateTotalPages(ip.KeyBytes, rows))
	return ip, nil
}

// AccessKind enumerates the access paths the planner considers.
type AccessKind int

// Access paths.
const (
	HeapScan AccessKind = iota
	IndexSeek
	IndexOnlyScan
)

// String names the access kind.
func (k AccessKind) String() string {
	switch k {
	case HeapScan:
		return "HeapScan"
	case IndexSeek:
		return "IndexSeek"
	case IndexOnlyScan:
		return "IndexOnlyScan"
	default:
		return fmt.Sprintf("AccessKind(%d)", int(k))
	}
}

// RangeSpec describes a one-column range bound following the equality
// prefix of an index seek.
type RangeSpec struct {
	Low, High                   *types.Value // nil = unbounded
	LowInclusive, HighInclusive bool
}

// Access is a costed access path.
type Access struct {
	Kind  AccessKind
	Index *IndexPhys // nil for HeapScan
	// EqVals are the values of the leading equality prefix (IndexSeek).
	EqVals []types.Value
	// Range optionally bounds the key column right after the prefix.
	Range *RangeSpec
	// In optionally lists the values of an IN predicate on the key
	// column right after the prefix (mutually exclusive with Range);
	// execution runs one sub-seek per value.
	In []types.Value
	// Covering is true when the index contains every referenced column,
	// so no heap lookups are needed.
	Covering bool
	// Consumed are indices into the statement's conjunct list that the
	// access path satisfies; the rest are residual filters.
	Consumed []int
	// EstMatchRows estimates rows matching the seek predicate (before
	// residual filtering).
	EstMatchRows float64
	// EstResultRows estimates rows after all predicates.
	EstResultRows float64
	// PageCost is the estimated logical page accesses.
	PageCost float64
}

// String summarizes the access path for EXPLAIN output.
func (a Access) String() string {
	switch a.Kind {
	case HeapScan:
		return fmt.Sprintf("HeapScan cost=%.1f rows=%.1f", a.PageCost, a.EstResultRows)
	case IndexSeek:
		cov := ""
		if a.Covering {
			cov = " covering"
		}
		return fmt.Sprintf("IndexSeek %s eq=%d%s cost=%.1f rows=%.1f",
			a.Index.Def.Name(), len(a.EqVals), cov, a.PageCost, a.EstResultRows)
	case IndexOnlyScan:
		return fmt.Sprintf("IndexOnlyScan %s cost=%.1f rows=%.1f",
			a.Index.Def.Name(), a.PageCost, a.EstResultRows)
	default:
		return "unknown access"
	}
}

// columnStats returns the statistics of the named column, nil when the
// table has none for it.
func columnStats(t TablePhys, col string) *stats.ColumnStats {
	if t.Stats == nil {
		return nil
	}
	return t.Stats.Column(col)
}

// selEq estimates the selectivity of column = v from the column's
// statistics cs (nil: none).
func selEq(cs *stats.ColumnStats, v types.Value) float64 {
	if cs == nil {
		return defaultEqSelectivity
	}
	return cs.SelectivityEq(v)
}

// selRange estimates the selectivity of a range over one column from the
// column's statistics cs (nil: none).
func selRange(cs *stats.ColumnStats, r RangeSpec) float64 {
	if cs == nil {
		return defaultRangeSelectivity
	}
	frac := cs.SelectivityRange(r.Low, r.High) // [low, high)
	if r.Low != nil && !r.LowInclusive {
		frac -= cs.SelectivityEq(*r.Low)
	}
	if r.High != nil && r.HighInclusive {
		frac += cs.SelectivityEq(*r.High)
	}
	if frac < 0 {
		return 0
	}
	if frac > 1 {
		return 1
	}
	return frac
}

// conjunctSelectivity estimates one conjunct's selectivity in isolation
// from its column's statistics cs (nil: none).
func conjunctSelectivity(cs *stats.ColumnStats, c sql.Comparison) float64 {
	switch c.Op {
	case sql.OpEq:
		return selEq(cs, c.Value)
	case sql.OpIn:
		total := 0.0
		for _, v := range c.Values {
			total += selEq(cs, v)
		}
		if total > 1 {
			return 1
		}
		return total
	case sql.OpLt:
		return selRange(cs, RangeSpec{High: &c.Value})
	case sql.OpLe:
		return selRange(cs, RangeSpec{High: &c.Value, HighInclusive: true})
	case sql.OpGt:
		return selRange(cs, RangeSpec{Low: &c.Value})
	case sql.OpGe:
		return selRange(cs, RangeSpec{Low: &c.Value, LowInclusive: true})
	default:
		return defaultRangeSelectivity
	}
}

// isRangeOp reports whether op bounds a range (<, <=, >, >=).
func isRangeOp(op sql.CompareOp) bool {
	return op == sql.OpLt || op == sql.OpLe || op == sql.OpGt || op == sql.OpGe
}

// searchTemplate is the part of costing a row search that its template
// fixes, whatever its literals: the statement validated, the referenced
// column ordinals (which decide covering), and per WHERE conjunct its
// column's ordinal and statistics. Every statement of the template
// costs the same derivation; only its literals are left to price
// (numbers).
type searchTemplate struct {
	need []int
	// ords[i] is conjunct i's column ordinal; cs[i] its column's
	// statistics under the conjunct's spelling of the column, and
	// seekCS[i] under the schema's, which is how an index seek names it.
	ords       []int
	cs, seekCS []*stats.ColumnStats
	// combined is set when a column carries two range bounds: a seek over
	// them prices their combined range from the literal values, which
	// the numbers do not determine.
	combined bool
}

// newSearchTemplate validates sel and derives its searchTemplate. SELECT *
// references every column.
func newSearchTemplate(sel *sql.Select, t TablePhys) (searchTemplate, error) {
	if err := validateSelect(sel, t.Schema); err != nil {
		return searchTemplate{}, err
	}
	var st searchTemplate
	if len(sel.Columns) == 0 && !sel.CountStar && !sel.HasAggregates() {
		for i := 0; i < t.Schema.Len(); i++ {
			st.need = append(st.need, i)
		}
	} else {
		for _, name := range sel.ReferencedColumns() {
			st.need = append(st.need, t.Schema.ColumnIndex(name))
		}
	}
	var conjuncts []sql.Comparison
	if sel.Where != nil {
		conjuncts = sel.Where.Conjuncts
	}
	st.ords = make([]int, len(conjuncts))
	st.cs = make([]*stats.ColumnStats, 2*len(conjuncts))
	st.cs, st.seekCS = st.cs[:len(conjuncts)], st.cs[len(conjuncts):]
	for i, c := range conjuncts {
		ord := t.Schema.ColumnIndex(c.Column)
		st.ords[i] = ord
		st.cs[i] = columnStats(t, c.Column)
		st.seekCS[i] = columnStats(t, t.Schema.Columns[ord].Name)
		if isRangeOp(c.Op) {
			for j, o := range conjuncts[:i] {
				if isRangeOp(o.Op) && st.ords[j] == ord {
					st.combined = true
				}
			}
		}
	}
	return st, nil
}

// numbers appends every histogram-derived number costing reads of the
// statement's conjuncts, 2 × len(conjuncts) of them: each conjunct's
// selectivity in isolation, then for each range bound the selectivity an
// index seek prices when the bound is the only one on its column — under
// the schema's statistics of the column (0 for a conjunct that bounds no
// range). A seek over two bounds on one column prices their combined
// range, which depends on the literals and is not among these numbers.
// They are all a statement of the template adds to it: statements of one
// non-combined template with equal numbers compile to equal tables.
func (st *searchTemplate) numbers(conjuncts []sql.Comparison, out []float64) []float64 {
	n := len(conjuncts)
	out = slices.Grow(out[:0], 2*n)[:2*n]
	for i, c := range conjuncts {
		sel, seek := conjunctSelectivity(st.cs[i], c), 0.0
		if isRangeOp(c.Op) {
			seek = sel
			if st.seekCS[i] != st.cs[i] {
				seek = conjunctSelectivity(st.seekCS[i], c)
			}
		}
		out[i], out[n+i] = sel, seek
	}
	return out
}

// selectShape is the configuration-independent part of costing one row
// search: its template's ordinals, the WHERE conjuncts with their
// numbers, and the estimated result cardinality. Deriving it once per
// statement is what lets a PlanTable price every candidate access path
// with a single histogram pass.
type selectShape struct {
	need      []int
	conjuncts []sql.Comparison
	ords      []int
	// sel[i] and seekSel[i] are conjunct i's numbers.
	sel, seekSel []float64
	resultRows   float64
}

// shape assembles the selectShape of a statement of the template from
// its conjuncts and their numbers.
func (st *searchTemplate) shape(conjuncts []sql.Comparison, nums []float64, t TablePhys) selectShape {
	n := len(conjuncts)
	sh := selectShape{need: st.need, conjuncts: conjuncts, ords: st.ords, sel: nums[:n], seekSel: nums[n:], resultRows: t.Rows}
	for _, v := range sh.sel {
		sh.resultRows *= v
	}
	return sh
}

// shapeSelect validates the statement and derives its selectShape.
func shapeSelect(sel *sql.Select, t TablePhys) (selectShape, error) {
	st, err := newSearchTemplate(sel, t)
	if err != nil {
		return selectShape{}, err
	}
	var conjuncts []sql.Comparison
	if sel.Where != nil {
		conjuncts = sel.Where.Conjuncts
	}
	return st.shape(conjuncts, st.numbers(conjuncts, nil), t), nil
}

// ChooseAccess enumerates the access paths available for a SELECT over
// the given physical table and indexes, and returns the cheapest. Ties
// break deterministically: lower cost, then seek over index-only scan
// over heap scan, then index name.
func ChooseAccess(sel *sql.Select, t TablePhys, indexes []IndexPhys) (Access, error) {
	sh, err := shapeSelect(sel, t)
	if err != nil {
		return Access{}, err
	}
	best := Access{
		Kind:          HeapScan,
		EstMatchRows:  t.Rows,
		EstResultRows: sh.resultRows,
		PageCost:      math.Max(1, t.HeapPages),
	}
	for i := range indexes {
		if a, ok := indexAccess(t, &indexes[i], &sh); ok && betterAccess(a, best) {
			best = a
		}
	}
	return best, nil
}

// indexAccess is the per-index step of ChooseAccess: the index's seek
// or, when it covers the statement, its index-only scan, whichever
// betterAccess prefers; false when it offers neither.
func indexAccess(t TablePhys, ip *IndexPhys, sh *selectShape) (Access, bool) {
	covering := ip.Covers(sh.need)
	a, ok := seekAccess(t, ip, sh, covering)
	if covering {
		scan := Access{
			Kind:          IndexOnlyScan,
			Index:         ip,
			Covering:      true,
			EstMatchRows:  t.Rows,
			EstResultRows: sh.resultRows,
			PageCost:      ip.Height + ip.LeafPages,
		}
		if !ok || betterAccess(scan, a) {
			return scan, true
		}
	}
	return a, ok
}

// indexCost is the page cost of indexAccess's path, as CompilePlan
// reads it, without building the Access: betterAccess prefers the
// index-only scan exactly when it is strictly cheaper than the seek.
func indexCost(t TablePhys, ip *IndexPhys, sh *selectShape) (float64, bool) {
	covering := ip.Covers(sh.need)
	seek, _, ok := seekPrice(t, ip, sh, covering, nil)
	if covering {
		if scan := ip.Height + ip.LeafPages; !ok || scan < seek {
			return scan, true
		}
	}
	return seek, ok
}

// betterAccess reports whether a is strictly preferred over b under the
// planner's deterministic order. Because the order is strict, scanning
// candidates in enumeration order and keeping the incumbent on a full
// tie selects exactly the element a stable sort would put first.
func betterAccess(a, b Access) bool {
	if a.PageCost != b.PageCost {
		return a.PageCost < b.PageCost
	}
	if ra, rb := kindRank(a.Kind), kindRank(b.Kind); ra != rb {
		return ra < rb
	}
	return indexName(a) < indexName(b)
}

func kindRank(k AccessKind) int {
	switch k {
	case IndexSeek:
		return 0
	case IndexOnlyScan:
		return 1
	default:
		return 2
	}
}

func indexName(a Access) string {
	if a.Index == nil {
		return ""
	}
	return a.Index.Def.Name()
}

// seekAccess builds the best seek on one index (seekPrice).
func seekAccess(t TablePhys, ip *IndexPhys, sh *selectShape, covering bool) (Access, bool) {
	a := Access{Kind: IndexSeek, Index: ip, Covering: covering}
	var ok bool
	if a.PageCost, a.EstMatchRows, ok = seekPrice(t, ip, sh, covering, &a); !ok {
		return Access{}, false
	}
	a.EstResultRows = sh.resultRows
	return a, true
}

// seekPrice prices the best seek on one index: the longest leading
// equality prefix, optionally extended by an IN list or a range on the
// next key column. Its selectivities are the shape's numbers, except the
// combined range of two or more bounds on one column, priced here from
// the literals. When a is non-nil, the seek's values, range and consumed
// conjuncts are recorded in it. It returns the seek's page cost and
// matched rows, false when the index offers nothing to seek on.
func seekPrice(t TablePhys, ip *IndexPhys, sh *selectShape, covering bool, a *Access) (pageCost, matchRows float64, ok bool) {
	conjuncts := sh.conjuncts
	sel1 := 1.0
	// Consumed-conjunct tracking: a bitmask for the (universal) case of
	// at most 64 conjuncts, an allocated map beyond — the bitmask keeps
	// the hot costing path allocation-free.
	var usedBits uint64
	var usedBig map[int]bool
	if len(conjuncts) > 64 {
		usedBig = make(map[int]bool)
	}
	used := func(ci int) bool {
		if usedBig != nil {
			return usedBig[ci]
		}
		return usedBits>>uint(ci)&1 == 1
	}
	markUsed := func(ci int) {
		if usedBig != nil {
			usedBig[ci] = true
			return
		}
		usedBits |= 1 << uint(ci)
	}

	// Leading equality prefix.
	eq := 0
	for _, keyCol := range ip.KeyCols {
		found := -1
		for ci, c := range conjuncts {
			if used(ci) || c.Op != sql.OpEq {
				continue
			}
			if sh.ords[ci] == keyCol {
				found = ci
				break
			}
		}
		if found < 0 {
			break
		}
		markUsed(found)
		eq++
		if a != nil {
			a.Consumed = append(a.Consumed, found)
			a.EqVals = append(a.EqVals, conjuncts[found].Value)
		}
		sel1 *= sh.sel[found]
	}

	// Optional IN list or range on the next key column. An IN predicate
	// is preferred: it seeks exactly its values instead of spanning them.
	var in []types.Value
	if eq < len(ip.KeyCols) {
		next := ip.KeyCols[eq]
		for ci, c := range conjuncts {
			if used(ci) || c.Op != sql.OpIn || sh.ords[ci] != next {
				continue
			}
			in = c.Values
			if a != nil {
				a.In = in
				a.Consumed = append(a.Consumed, ci)
			}
			markUsed(ci)
			sel1 *= sh.sel[ci]
			break
		}
	}
	bounds := 0
	if in == nil && eq < len(ip.KeyCols) {
		next := ip.KeyCols[eq]
		var r RangeSpec
		first := -1
		for ci := range conjuncts {
			c := &conjuncts[ci]
			if used(ci) || sh.ords[ci] != next {
				continue
			}
			switch c.Op {
			case sql.OpGt, sql.OpGe:
				incl := c.Op == sql.OpGe
				if r.Low == nil || c.Value.Compare(*r.Low) > 0 || (c.Value.Compare(*r.Low) == 0 && !incl) {
					r.Low, r.LowInclusive = &c.Value, incl
				}
			case sql.OpLt, sql.OpLe:
				incl := c.Op == sql.OpLe
				if r.High == nil || c.Value.Compare(*r.High) < 0 || (c.Value.Compare(*r.High) == 0 && !incl) {
					r.High, r.HighInclusive = &c.Value, incl
				}
			default:
				continue
			}
			if bounds == 0 {
				first = ci
			}
			bounds++
			if a != nil {
				a.Consumed = append(a.Consumed, ci)
			}
		}
		switch {
		case bounds == 1:
			sel1 *= sh.seekSel[first]
		case bounds > 1:
			sel1 *= selRange(columnStats(t, t.Schema.Columns[next].Name), r)
		}
		if bounds > 0 && a != nil {
			rs := r
			a.Range = &rs
		}
	}

	if eq == 0 && bounds == 0 && in == nil {
		return 0, 0, false // nothing to seek on
	}
	matchRows = t.Rows * sel1
	// Pages: descents + matched leaf pages + heap fetches unless
	// covering. An IN seek descends once per value.
	descents := 1.0
	if in != nil {
		descents = float64(len(in))
	}
	leafFrac := 1.0
	if t.Rows > 0 {
		leafFrac = matchRows / t.Rows
	}
	matchedLeaves := math.Max(descents, math.Ceil(ip.LeafPages*leafFrac))
	pageCost = descents*ip.Height + matchedLeaves
	if !covering {
		pageCost += matchRows
	}
	return pageCost, matchRows, true
}

// validateSelect checks that every referenced column exists and that
// predicate literal kinds match the column kinds.
func validateSelect(sel *sql.Select, schema *types.Schema) error {
	check := func(col string) error {
		if schema.ColumnIndex(col) < 0 {
			return fmt.Errorf("cost: unknown column %q", col)
		}
		return nil
	}
	for _, c := range sel.Columns {
		if err := check(c); err != nil {
			return err
		}
	}
	for _, agg := range sel.Aggregates() {
		if agg.Column == "" {
			if agg.Func != sql.AggCount {
				return fmt.Errorf("cost: %s(*) is not valid", agg.Func)
			}
			continue
		}
		if err := check(agg.Column); err != nil {
			return err
		}
		if agg.Func == sql.AggSum || agg.Func == sql.AggAvg {
			ord := schema.ColumnIndex(agg.Column)
			if schema.Columns[ord].Kind != types.KindInt {
				return fmt.Errorf("cost: %s over non-integer column %q", agg.Func, agg.Column)
			}
		}
	}
	if sel.GroupBy != "" {
		if err := check(sel.GroupBy); err != nil {
			return err
		}
	}
	// With aggregates, every plain select-list column must be the
	// grouping column.
	if sel.HasAggregates() {
		for _, c := range sel.Columns {
			if sel.GroupBy == "" || !strings.EqualFold(c, sel.GroupBy) {
				return fmt.Errorf("cost: column %q in an aggregate query must be the GROUP BY column", c)
			}
		}
	}
	if sel.Order != nil {
		if err := check(sel.Order.Column); err != nil {
			return err
		}
		if sel.HasAggregates() && (sel.GroupBy == "" || !strings.EqualFold(sel.Order.Column, sel.GroupBy)) {
			return fmt.Errorf("cost: ORDER BY in an aggregate query must use the GROUP BY column")
		}
	}
	if sel.Where != nil {
		for _, c := range sel.Where.Conjuncts {
			if err := check(c.Column); err != nil {
				return err
			}
			ord := schema.ColumnIndex(c.Column)
			if c.Op == sql.OpIn {
				if len(c.Values) == 0 {
					return fmt.Errorf("cost: empty IN list on %q", c.Column)
				}
				for _, v := range c.Values {
					if schema.Columns[ord].Kind != v.Kind {
						return fmt.Errorf("cost: IN list on %q compares %s to %s",
							c.Column, schema.Columns[ord].Kind, v.Kind)
					}
				}
				continue
			}
			if schema.Columns[ord].Kind != c.Value.Kind {
				return fmt.Errorf("cost: predicate on %q compares %s to %s",
					c.Column, schema.Columns[ord].Kind, c.Value.Kind)
			}
		}
	}
	return nil
}

// --- Configuration terms (TRANS, SIZE) ---------------------------------

// SortIOFactor models the external-sort I/O of an online index build as
// a multiple of the index's leaf pages: a two-pass external merge sort
// reads and writes the run files twice (2 passes × read+write). The
// engine's build charges the same factor, so predicted and measured
// TRANS agree.
const SortIOFactor = 4

// BuildCost estimates the pages charged to build an index online: one
// full heap scan, the external sort of the entries, and writing every
// node of the new tree. This is the per-index TRANS term for index
// creation.
func BuildCost(ip IndexPhys, t TablePhys) float64 {
	return t.HeapPages + SortIOFactor*ip.LeafPages + ip.TotalPages
}

// DropCost is the pages charged to drop an index (a catalog write).
func DropCost() float64 { return 1 }

// HeapPagesForRows predicts heap pages for a table of n rows with the
// given average encoded row size, matching storage.HeapFile's layout.
func HeapPagesForRows(n int64, rowBytes float64) float64 {
	if n <= 0 {
		return 1
	}
	perPage := math.Floor(float64(storage.PageSize-6) / (rowBytes + 4))
	if perPage < 1 {
		perPage = 1
	}
	return math.Ceil(float64(n) / perPage)
}
