package cost

import (
	"math"
	"slices"
	"sync"

	"dyndesign/internal/sql"
	"dyndesign/internal/types"
)

// PlanSet compiles statements into plan tables over one table
// description and candidate index list, deriving each statement
// template once and holding each distinct table once.
//
// A statement is resolved in two steps. Its template — everything
// CompilePlan reads of it besides its literal values (sameTemplate) — is
// looked up by a hash of those fields and verified field for field
// against the first statement the set met of it, so two statements share
// a template only when their templates are equal: the catalog check,
// validation, column ordinals and column statistics are derived once per
// template, and a template's error is every one of its statements'
// error. Then the statement's literals are priced, one histogram search
// per conjunct (searchTemplate.numbers), and the table is looked up by
// the template and those numbers, compared bit for bit; a miss compiles
// from the template and the numbers in hand. Statements whose table
// depends on their literals beyond the numbers — a column carrying two
// range bounds, whose combined range the seek prices from the values —
// compile every time.
//
// Every compiled table is deduplicated by content against every table
// the set holds, so statements of different templates or numbers that
// price every configuration alike (point queries on one column whose
// seeks cost the same) share one table too. Sharing is what lets
// RowKernel.Fill fold a segment by configuration classes.
//
// Safe for concurrent use. Workers that resolve many statements each take
// a PlanFront, whose hits take no lock.
type PlanSet struct {
	t       TablePhys
	indexes []IndexPhys

	// mu guards the held templates, each template's tables and the
	// content index; fronts take it only on a miss.
	mu        sync.Mutex
	templates map[uint64]*heldTemplate
	byContent map[uint64][]*PlanTable
	bytes     int64
}

// heldTemplate is one template a PlanSet holds.
type heldTemplate struct {
	template
	// err is CompilePlan's error for every statement of the template.
	err error
	// rep is the first statement the set met of the template; every
	// other is verified against it.
	rep sql.Statement
	// next is the next held template of the same hash.
	next *heldTemplate
	// tables holds the template's tables by the hash of their numbers,
	// chained on equal hashes; guarded by PlanSet.mu.
	tables map[uint64]*heldTable
}

// heldTable is the table the statements of one template and one list of
// numbers compile to.
type heldTable struct {
	nums []float64
	pt   *PlanTable
	next *heldTable
}

// NewPlanSet returns an empty set over t and indexes, which it retains.
func NewPlanSet(t TablePhys, indexes []IndexPhys) *PlanSet {
	return &PlanSet{
		t: t, indexes: indexes,
		templates: make(map[uint64]*heldTemplate),
		byContent: make(map[uint64][]*PlanTable),
	}
}

// Compile returns stmt's plan table — equal, bit for bit, to what
// CompilePlan(stmt, t, indexes) returns — or CompilePlan's error. It is a
// front's Compile without the front's memory: every lookup takes the
// set's lock.
func (s *PlanSet) Compile(stmt sql.Statement) (*PlanTable, error) {
	return (&PlanFront{set: s}).Compile(stmt)
}

// Bytes is the heap the set's distinct tables retain.
func (s *PlanSet) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// PlanFront is one worker's view of a PlanSet: it remembers the
// templates and tables it has looked up, so a statement whose template
// and numbers it has met resolves without taking the set's lock. Its
// misses go to the set, which all fronts share. A front is not safe for
// concurrent use; give each worker its own.
type PlanFront struct {
	set *PlanSet
	// templates is nil in the front PlanSet.Compile uses, which
	// remembers nothing.
	templates map[uint64]*frontTemplate
	nums      []float64
}

// frontTemplate is a held template as a front remembers it, with the
// tables the front has looked up by the hash of their numbers.
type frontTemplate struct {
	*heldTemplate
	tables map[uint64]*heldTable
}

// Front returns a new, empty front over the set.
func (s *PlanSet) Front() *PlanFront {
	return &PlanFront{set: s, templates: make(map[uint64]*frontTemplate)}
}

// Compile returns stmt's plan table — equal, bit for bit, to what
// CompilePlan(stmt, t, indexes) returns — or CompilePlan's error.
func (f *PlanFront) Compile(stmt sql.Statement) (*PlanTable, error) {
	s := f.set
	h, ok := templateHash(stmt)
	if !ok {
		_, err := newTemplate(stmt, s.t, s.indexes)
		return nil, err
	}
	ft := f.templates[h]
	if ft == nil || !sameTemplate(stmt, ft.rep) {
		ft = &frontTemplate{heldTemplate: s.template(stmt, h)}
		if f.templates != nil {
			ft.tables = make(map[uint64]*heldTable)
			f.templates[h] = ft
		}
	}
	tp := ft.heldTemplate
	if tp.err != nil {
		return nil, tp.err
	}
	conj := conjunctsOf(stmt)
	f.nums = tp.numbers(conj, f.nums)
	if tp.search != nil && tp.search.combined {
		return s.intern(tp.compile(conj, f.nums, s.t, s.indexes)), nil
	}
	nh := hashNumbers(f.nums)
	if ht := ft.tables[nh]; ht != nil && sameBits(ht.nums, f.nums) {
		return ht.pt, nil
	}
	ht := s.table(tp, conj, f.nums, nh)
	if ft.tables != nil {
		ft.tables[nh] = ht
	}
	return ht.pt, nil
}

// template returns the held template of stmt, whose templateHash is h,
// deriving it on the first statement of the template.
func (s *PlanSet) template(stmt sql.Statement, h uint64) *heldTemplate {
	s.mu.Lock()
	defer s.mu.Unlock()
	for tp := s.templates[h]; tp != nil; tp = tp.next {
		if sameTemplate(stmt, tp.rep) {
			return tp
		}
	}
	tp := &heldTemplate{rep: stmt, next: s.templates[h], tables: make(map[uint64]*heldTable)}
	tp.template, tp.err = newTemplate(stmt, s.t, s.indexes)
	s.templates[h] = tp
	return tp
}

// table returns the held table of tp's statements whose numbers are nums
// (hash h), compiling it from conj on a miss.
func (s *PlanSet) table(tp *heldTemplate, conj []sql.Comparison, nums []float64, h uint64) *heldTable {
	s.mu.Lock()
	ht := tp.lookup(nums, h)
	s.mu.Unlock()
	if ht != nil {
		return ht
	}
	pt := tp.compile(conj, nums, s.t, s.indexes)
	hc := pt.contentHash()
	s.mu.Lock()
	defer s.mu.Unlock()
	if ht := tp.lookup(nums, h); ht != nil {
		return ht // another worker compiled it meanwhile
	}
	ht = &heldTable{nums: slices.Clone(nums), pt: s.dedup(pt, hc), next: tp.tables[h]}
	tp.tables[h] = ht
	return ht
}

// lookup finds tp's table of numbers nums (hash h); the caller holds the
// set's lock.
func (tp *heldTemplate) lookup(nums []float64, h uint64) *heldTable {
	for ht := tp.tables[h]; ht != nil; ht = ht.next {
		if sameBits(ht.nums, nums) {
			return ht
		}
	}
	return nil
}

// intern returns the held table with pt's content, adding pt if none.
func (s *PlanSet) intern(pt *PlanTable) *PlanTable {
	h := pt.contentHash()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dedup(pt, h)
}

// dedup is intern under the set's lock, with pt's content hash h.
func (s *PlanSet) dedup(pt *PlanTable, h uint64) *PlanTable {
	if i := slices.IndexFunc(s.byContent[h], pt.sameContent); i >= 0 {
		return s.byContent[h][i]
	}
	s.byContent[h] = append(s.byContent[h], pt)
	s.bytes += int64(pt.Bytes())
	return pt
}

// templateHash hashes every field sameTemplate compares; false for a
// statement that is not a workload statement.
func templateHash(stmt sql.Statement) (uint64, bool) {
	var h hasher
	var conj []sql.Comparison
	switch s := stmt.(type) {
	case *sql.Select:
		order := uint64(0)
		if s.Order != nil {
			order = 1
		}
		h.word(uint64(planSelect) | boolWord(s.CountStar)<<8 | order<<16 | uint64(len(s.Columns))<<24 | uint64(len(s.Items))<<40)
		h.str(s.Table)
		for _, c := range s.Columns {
			h.str(c)
		}
		for _, it := range s.Items {
			h.word(uint64(it.Agg.Func) | boolWord(it.IsAgg)<<8)
			h.str(it.Col)
			h.str(it.Agg.Column)
		}
		h.str(s.GroupBy)
		if s.Order != nil {
			h.str(s.Order.Column)
		}
		if s.Where != nil {
			conj = s.Where.Conjuncts
		}
	case *sql.Insert:
		h.word(uint64(planInsert) | uint64(len(s.Columns))<<8 | uint64(len(s.Rows))<<32)
		h.str(s.Table)
		for _, c := range s.Columns {
			h.str(c)
		}
		for _, row := range s.Rows {
			h.kinds(row)
		}
		return h.sum(), true
	case *sql.Update:
		h.word(uint64(planUpdate) | uint64(len(s.Set))<<8)
		h.str(s.Table)
		for _, a := range s.Set {
			h.str(a.Column)
			h.word(uint64(a.Value.Kind))
		}
		if s.Where != nil {
			conj = s.Where.Conjuncts
		}
	case *sql.Delete:
		h.word(uint64(planDelete))
		h.str(s.Table)
		if s.Where != nil {
			conj = s.Where.Conjuncts
		}
	default:
		return 0, false
	}
	h.word(uint64(len(conj)))
	for i := range conj {
		c := &conj[i]
		h.str(c.Column)
		if c.Op == sql.OpIn {
			h.word(uint64(c.Op))
			h.kinds(c.Values)
		} else {
			h.word(uint64(c.Op) | uint64(c.Value.Kind)<<8)
		}
	}
	return h.sum(), true
}

// sameTemplate reports whether a and b have equal templates: the same
// kind and table, and field for field, in exact spelling, what
// CompilePlan reads of them besides literal values — a SELECT's select
// list, COUNT(*), aggregates, GROUP BY and ORDER BY columns; an INSERT's
// column list and each value's kind, row by row; an UPDATE's SET columns
// and value kinds; and per WHERE conjunct its column, operator and
// literal kinds, an IN list's length included. DISTINCT, LIMIT and the
// sort direction are not read.
func sameTemplate(a, b sql.Statement) bool {
	switch s := a.(type) {
	case *sql.Select:
		r, ok := b.(*sql.Select)
		if !ok || s.Table != r.Table || s.CountStar != r.CountStar || s.GroupBy != r.GroupBy ||
			len(s.Columns) != len(r.Columns) || len(s.Items) != len(r.Items) || (s.Order == nil) != (r.Order == nil) {
			return false
		}
		for i, c := range s.Columns {
			if c != r.Columns[i] {
				return false
			}
		}
		for i, it := range s.Items {
			if it != r.Items[i] {
				return false
			}
		}
		if s.Order != nil && s.Order.Column != r.Order.Column {
			return false
		}
		return sameConjuncts(s.Where, r.Where)
	case *sql.Insert:
		r, ok := b.(*sql.Insert)
		if !ok || s.Table != r.Table || len(s.Columns) != len(r.Columns) || len(s.Rows) != len(r.Rows) {
			return false
		}
		for i, c := range s.Columns {
			if c != r.Columns[i] {
				return false
			}
		}
		for i, row := range s.Rows {
			if !sameKinds(row, r.Rows[i]) {
				return false
			}
		}
		return true
	case *sql.Update:
		r, ok := b.(*sql.Update)
		if !ok || s.Table != r.Table || len(s.Set) != len(r.Set) {
			return false
		}
		for i, a := range s.Set {
			if a.Column != r.Set[i].Column || a.Value.Kind != r.Set[i].Value.Kind {
				return false
			}
		}
		return sameConjuncts(s.Where, r.Where)
	case *sql.Delete:
		r, ok := b.(*sql.Delete)
		return ok && s.Table == r.Table && sameConjuncts(s.Where, r.Where)
	}
	return false
}

// sameConjuncts reports whether two WHERE clauses (nil: none) have the
// same conjuncts but for their literal values.
func sameConjuncts(a, b *sql.Where) bool {
	var x, y []sql.Comparison
	if a != nil {
		x = a.Conjuncts
	}
	if b != nil {
		y = b.Conjuncts
	}
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		c, d := &x[i], &y[i]
		if c.Column != d.Column || c.Op != d.Op {
			return false
		}
		if c.Op == sql.OpIn {
			if !sameKinds(c.Values, d.Values) {
				return false
			}
		} else if c.Value.Kind != d.Value.Kind {
			return false
		}
	}
	return true
}

// sameKinds reports whether two value lists have equal lengths and
// kinds.
func sameKinds(a, b []types.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind {
			return false
		}
	}
	return true
}

// hasher hashes words and strings with one multiply a word. It only
// spreads templates and numbers over maps, whose own hash mixes the
// result again: every hit is verified.
type hasher uint64

func (h *hasher) word(v uint64) { *h = (*h ^ hasher(v)) * 0x9E3779B97F4A7C15 }

// str hashes s with its length: a string of at most seven bytes, as most
// names are, is one word.
func (h *hasher) str(s string) {
	n := len(s)
	for len(s) > 7 {
		h.word(uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56)
		s = s[8:]
	}
	w := uint64(n) << 56
	for i := 0; i < len(s); i++ {
		w |= uint64(s[i]) << (8 * i)
	}
	h.word(w)
}

// kinds hashes the length and kinds of a value list.
func (h *hasher) kinds(vs []types.Value) {
	h.word(uint64(len(vs)))
	for i := range vs {
		h.word(uint64(vs[i].Kind))
	}
}

func (h *hasher) sum() uint64 { return uint64(*h) ^ uint64(*h)>>29 }

func boolWord(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

// hashNumbers hashes the bits of nums.
func hashNumbers(nums []float64) uint64 {
	var h hasher
	for _, v := range nums {
		h.word(math.Float64bits(v))
	}
	return h.sum()
}

// sameContent reports whether o holds, bit for bit, every value Cost
// reads of pt: the kind, masks, heap cost, row factor, maintenance
// increments and projection — or, without a projection, the path costs
// it stands for.
func (pt *PlanTable) sameContent(o *PlanTable) bool {
	return pt.kind == o.kind && pt.allMask == o.allMask && pt.relevant == o.relevant &&
		math.Float64bits(pt.heapCost) == math.Float64bits(o.heapCost) &&
		math.Float64bits(pt.rows) == math.Float64bits(o.rows) &&
		sameBits(pt.maint, o.maint) && sameBits(pt.proj, o.proj) &&
		(pt.proj != nil || sameBits(pt.pathCost, o.pathCost))
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// contentHash hashes what sameContent compares.
func (pt *PlanTable) contentHash() uint64 {
	h := uint64(pt.kind)
	mix := func(v uint64) { h = (h ^ v) * 0x100000001b3 }
	mix(pt.allMask)
	mix(pt.relevant)
	mix(math.Float64bits(pt.heapCost))
	mix(math.Float64bits(pt.rows))
	for _, v := range pt.maint {
		mix(math.Float64bits(v))
	}
	for _, v := range pt.proj {
		mix(math.Float64bits(v))
	}
	if pt.proj == nil {
		for _, v := range pt.pathCost {
			mix(math.Float64bits(v))
		}
	}
	return h
}
