package cost

import (
	"fmt"
	"math"
	"math/bits"

	"dyndesign/internal/sql"
)

// maxProjBits bounds the dense projection table of a PlanTable: a
// statement whose relevant-index clique is wider falls back to the
// direct bit-scan minimum instead of materializing 2^w cells. 12 bits
// (4096 cells, 32 KiB) is far beyond the clique widths the partitioned
// solver tolerates, so real workloads always get the dense table.
const maxProjBits = 12

// planKind is the kind of workload statement a PlanTable prices.
type planKind uint8

const (
	planSelect planKind = iota
	planInsert
	planUpdate
	planDelete
)

// PlanTable is the compiled what-if costing of one statement against a
// fixed candidate index list. Compilation enumerates the statement's
// access paths once — the heap scan plus each index's best seek or
// covering variant — pricing every histogram-derived selectivity a
// single time, and records per-index path costs, per-index per-row
// maintenance increments, and the statement's relevant-index mask.
// Evaluating a configuration is then O(1) masked lookups instead of a
// fresh plan derivation, and the row search's cost is bit-for-bit the
// PageCost of the access ChooseAccess picks over the corresponding index
// slice (the equivalence FuzzBatchCostEquivalence pins):
//
//   - a SELECT's cost is the minimum over candidate paths, each path's
//     cost depends only on (statement, table, that one index), and
//     indexes whose best path loses to the heap scan can never change
//     the minimum;
//   - DML maintenance is per-index additive, summed in ascending bit
//     order, the order of the corresponding index slice.
//
// Configurations are uint64 bitmasks: bit i selects indexes[i] of the
// compile-time candidate list.
type PlanTable struct {
	kind planKind
	// allMask has one bit per candidate index; evaluated configurations
	// are masked with it so stray high bits cannot read out of range.
	allMask uint64
	// heapCost is the heap-scan page cost of the row search.
	heapCost float64
	// pathCost[i] is candidate i's cheapest index path (seek or
	// covering scan) for the row search; +Inf when it offers none.
	pathCost []float64
	// maint[i] is candidate i's maintenance pages per modified row.
	maint []float64
	// rows scales the per-row maintenance term: the INSERT row count,
	// or the estimated matched rows of an UPDATE/DELETE.
	rows float64
	// relevant marks the indexes that can win the row search — exactly
	// the indexes whose solo what-if probe beats (or ties, under the
	// planner's index-preferring tie-break) the heap scan, i.e. the
	// statement's interaction clique.
	relevant uint64
	// proj, when non-nil, is the dense projected search table:
	// proj[compress(c&relevant, relevant)] is the min-path cost of c.
	proj []float64
}

// CompilePlan compiles one workload statement — a SELECT, INSERT, UPDATE
// or DELETE that the table's catalog entry and the planner accept — into a
// PlanTable over the candidate index list. DML pays its row search plus,
// per modified row, a heap write and each index's maintenance. It is the
// composition of the two halves a PlanSet splits: the template, derived
// once per template, and the literals' numbers, priced per statement.
func CompilePlan(stmt sql.Statement, t TablePhys, indexes []IndexPhys) (*PlanTable, error) {
	tp, err := newTemplate(stmt, t, indexes)
	if err != nil {
		return nil, err
	}
	conj := conjunctsOf(stmt)
	return tp.compile(conj, tp.numbers(conj, nil), t, indexes), nil
}

// template is what compiling a statement reads of it besides its
// literal values: the statement checked against the catalog entry and
// validated, its kind, an INSERT's row count, and the row search's
// searchTemplate. Statements whose templates are equal (sameTemplate)
// share it, and those whose numbers are equal too compile to equal
// tables, unless the row search is combined.
type template struct {
	kind planKind
	// rows is an INSERT's row count.
	rows float64
	// search is the row search's template; nil for an INSERT.
	search *searchTemplate
}

// newTemplate derives stmt's template over t, or the error CompilePlan
// gives for every statement of the template.
func newTemplate(stmt sql.Statement, t TablePhys, indexes []IndexPhys) (template, error) {
	if len(indexes) > 64 {
		return template{}, fmt.Errorf("cost: plan table supports at most 64 candidate indexes, got %d", len(indexes))
	}
	if err := t.check(stmt); err != nil {
		return template{}, err
	}
	var tp template
	var search *sql.Select // the row search, nil for an INSERT
	switch s := stmt.(type) {
	case *sql.Select:
		tp.kind, search = planSelect, s
	case *sql.Insert:
		tp.kind, tp.rows = planInsert, float64(len(s.Rows))
	case *sql.Update:
		tp.kind, search = planUpdate, &sql.Select{Table: s.Table, Where: s.Where, Limit: -1}
	case *sql.Delete:
		tp.kind, search = planDelete, &sql.Select{Table: s.Table, Where: s.Where, Limit: -1}
	default:
		return template{}, fmt.Errorf("cost: statement %T is not a workload statement", stmt)
	}
	if search != nil {
		st, err := newSearchTemplate(search, t)
		if err != nil {
			return template{}, err
		}
		tp.search = &st
	}
	return tp, nil
}

// conjunctsOf returns the WHERE conjuncts of stmt's row search.
func conjunctsOf(stmt sql.Statement) []sql.Comparison {
	var w *sql.Where
	switch s := stmt.(type) {
	case *sql.Select:
		w = s.Where
	case *sql.Update:
		w = s.Where
	case *sql.Delete:
		w = s.Where
	}
	if w == nil {
		return nil
	}
	return w.Conjuncts
}

// numbers returns the numbers of a statement of the template whose row
// search has the conjuncts conj (searchTemplate.numbers), appended to
// out; none for an INSERT.
func (tp *template) numbers(conj []sql.Comparison, out []float64) []float64 {
	if tp.search == nil {
		return out[:0]
	}
	return tp.search.numbers(conj, out)
}

// compile builds the plan table of a statement of the template from its
// conjuncts and their numbers.
func (tp *template) compile(conj []sql.Comparison, nums []float64, t TablePhys, indexes []IndexPhys) *PlanTable {
	pt := &PlanTable{kind: tp.kind, allMask: ^uint64(0)}
	if len(indexes) < 64 {
		pt.allMask = 1<<uint(len(indexes)) - 1
	}
	switch tp.kind {
	case planInsert:
		pt.rows = tp.rows
		pt.compileMaint(indexes, 1) // descend + leaf write
	case planUpdate:
		pt.compileMaint(indexes, 2) // delete + insert entries
	case planDelete:
		pt.compileMaint(indexes, 1)
	}
	if tp.search != nil {
		sh := tp.search.shape(conj, nums, t)
		pt.compileSearch(&sh, t, indexes)
	}
	pt.buildProjection()
	return pt
}

// compileSearch prices the row search's access paths: the heap scan and
// each candidate index's best path (indexCost, the cost of ChooseAccess's
// own per-index step), all from the one shape of the statement. For an
// UPDATE or DELETE it sets rows to the search's estimated result rows,
// the rows the statement modifies.
func (pt *PlanTable) compileSearch(sh *selectShape, t TablePhys, indexes []IndexPhys) {
	if pt.kind != planSelect {
		pt.rows = sh.resultRows
	}
	pt.heapCost = math.Max(1, t.HeapPages)
	pt.pathCost = make([]float64, len(indexes))
	for i := range indexes {
		best := math.Inf(1)
		if c, ok := indexCost(t, &indexes[i], sh); ok {
			best = c
		}
		pt.pathCost[i] = best
		// Relevance matches the planner's tie-break: on equal cost the
		// index path wins over the heap scan (kindRank seek/scan < heap).
		if best <= pt.heapCost {
			pt.relevant |= 1 << uint(i)
		}
	}
}

// compileMaint precomputes the per-row maintenance increment of every
// candidate index: writes tree descents plus leaf writes per modified
// row (1 for INSERT/DELETE entries, 2 for UPDATE's delete+insert pair).
func (pt *PlanTable) compileMaint(indexes []IndexPhys, writes float64) {
	pt.maint = make([]float64, len(indexes))
	for i := range indexes {
		pt.maint[i] = writes * (indexes[i].Height + 1)
	}
}

// buildProjection materializes the dense projected search table over
// the relevant bits when the clique is narrow enough.
func (pt *PlanTable) buildProjection() {
	w := bits.OnesCount64(pt.relevant)
	if w == 0 || w > maxProjBits {
		return
	}
	var pos [maxProjBits]int
	b := 0
	for m := pt.relevant; m != 0; m &= m - 1 {
		pos[b] = bits.TrailingZeros64(m)
		b++
	}
	pt.proj = make([]float64, 1<<uint(w))
	for s := range pt.proj {
		best := pt.heapCost
		for b := 0; b < w; b++ {
			if s>>uint(b)&1 == 1 {
				if v := pt.pathCost[pos[b]]; v < best {
					best = v
				}
			}
		}
		pt.proj[s] = best
	}
}

// compress packs the bits of v selected by mask into the low bits of
// the result, preserving order — a software PEXT.
func compress(v, mask uint64) uint64 {
	var out uint64
	bit := uint64(1)
	for m := mask; m != 0; m &= m - 1 {
		if v&m&-m != 0 {
			out |= bit
		}
		bit <<= 1
	}
	return out
}

// searchCost returns the row search's min-path cost under c.
func (pt *PlanTable) searchCost(c uint64) float64 {
	rel := c & pt.relevant
	if rel == 0 {
		return pt.heapCost
	}
	if pt.proj != nil {
		return pt.proj[compress(rel, pt.relevant)]
	}
	best := pt.heapCost
	for m := rel; m != 0; m &= m - 1 {
		if v := pt.pathCost[bits.TrailingZeros64(m)]; v < best {
			best = v
		}
	}
	return best
}

// perRow accumulates the per-modified-row maintenance pages of c in
// ascending bit order, so the float64 operation sequence (and hence the
// result bits) is that of summing over the corresponding index slice.
func (pt *PlanTable) perRow(c uint64) float64 {
	per := 1.0 // heap write
	for m := c; m != 0; m &= m - 1 {
		per += pt.maint[bits.TrailingZeros64(m)]
	}
	return per
}

// Cost returns EXEC(statement, c) for the configuration whose bit i
// selects candidate index i; bits beyond the candidate list are dropped,
// so a caller that must refuse them checks them first. The explicit
// float64 around the product rounds it before any enclosing add, here
// and wherever the same value is computed (RowKernel's addCosts and
// classTable): without it a compiler may fuse the two (arm64 FMA) in one
// place and not another.
func (pt *PlanTable) Cost(c uint64) float64 {
	c &= pt.allMask
	switch pt.kind {
	case planSelect:
		return pt.searchCost(c)
	case planInsert:
		return float64(pt.rows * pt.perRow(c))
	default: // planUpdate, planDelete
		return pt.searchCost(c) + float64(pt.rows*pt.perRow(c))
	}
}

// RelevantMask returns the statement's interaction clique: the indexes
// whose presence can change its row-search cost. Maintenance terms are
// per-index additive and contribute no interactions.
func (pt *PlanTable) RelevantMask() uint64 { return pt.relevant }

// Bytes estimates the retained heap footprint of the compiled table,
// for memory accounting of long-lived plan caches.
func (pt *PlanTable) Bytes() int {
	const header = 96 // struct fields + slice headers
	return header + 8*(len(pt.pathCost)+len(pt.maint)+len(pt.proj))
}
