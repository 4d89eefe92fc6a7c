package cost

import (
	"math"
	"math/bits"
	"slices"
	"sync"
)

// RowKernel fills EXEC cost rows statement-major over one candidate
// configuration list: the row is zeroed, then each statement's cost is
// added to every cell before the next statement is touched. What a
// statement reads per configuration — its projected position c&relevant,
// its per-row maintenance pages — depends on the list, not the
// statement, so both come from side tables built once per list instead
// of a bit-loop compress and a kind switch per cell (DESIGN.md §17).
//
// Every cell receives exactly the float64 operations of summing
// PlanTable.Cost over the statements in order from 0: a filled row is
// bit-identical to the scalar sum. One kernel serves plan tables
// compiled over one index list (they share the maintenance vectors) and
// is safe for concurrent Fill calls.
type RowKernel[C ~uint64] struct {
	configs []C

	mu sync.RWMutex
	// pos[relevant][j] is compress(configs[j]&relevant, relevant), one
	// table per distinct relevant mask of the workload.
	pos map[uint64][]uint16
	// perRow[w][j] is PlanTable.perRow(configs[j]) under writes factor
	// w+1 (1: INSERT/DELETE entries, 2: UPDATE's delete+insert pair).
	perRow [2][]float64
	// perRowVals[w] are perRow[w]'s distinct values, bit for bit, in
	// first-occurrence order, and perRowID[w][j] indexes configs[j]'s.
	// fillClasses builds them on first use.
	perRowVals [2][]float64
	perRowID   [2][]int32
}

// NewRowKernel returns a kernel over configs, which it retains and the
// caller must not modify.
func NewRowKernel[C ~uint64](configs []C) *RowKernel[C] {
	return &RowKernel[C]{configs: configs, pos: make(map[uint64][]uint16)}
}

// Fill sets out[j] to the summed cost of tables under configs[j],
// accumulated in table order from 0; len(out) must equal the kernel's
// list length. A segment that repeats tables — the same *PlanTable at
// several statements, as a PlanSet hands them out — is folded once per
// configuration class (fillClasses); any other takes the statement-major
// loop.
func (k *RowKernel[C]) Fill(tables []*PlanTable, out []float64) {
	if k.fillClasses(tables, out) {
		return
	}
	clear(out)
	for _, pt := range tables {
		k.addCosts(pt, out)
	}
}

// classScratch is one fillClasses call's working memory, pooled because
// the matrix build fills hundreds of rows per solve.
type classScratch struct {
	dist  []*PlanTable
	of    []int32 // of[s]: statement s's index in dist
	tabs  []classTable
	grid  []float64 // the distinct tables' grid values, back to back
	keys  []uint64
	ids   []int32  // per grid cell: its value's number
	cp    []uint64 // per grid cell: that number times the radix
	key   []uint64 // per configuration: the mixed-radix key of its values
	cls   []int32  // per configuration: its class
	slots []int32  // denseIDs' open-addressing table
	first []int32  // denseIDs: the first index holding each id
	cv    []float64
	sums  []float64
}

var classPool = sync.Pool{New: func() any { return new(classScratch) }}

// classTable describes what one distinct table adds to a configuration as
// a function of two small coordinates: the value at configuration j is
// grid[off + P(j)*kw + Q(j)], where P(j) is pos[j] (0 when pos is nil),
// the projected position the table's search reads, and Q(j) is pid[j] (0
// when pid is nil), which of the list's distinct maintenance values it
// reads.
type classTable struct {
	pos []uint16
	pid []int32
	kw  int
	off int
}

func (ct *classTable) cell(j int) int {
	c := 0
	if ct.pos != nil {
		c = int(ct.pos[j]) * ct.kw
	}
	if ct.pid != nil {
		c += int(ct.pid[j])
	}
	return c
}

// fillClasses fills out by configuration classes. Two configurations
// share a class when every distinct table of the segment gives them
// bit-identical values: they then receive the same operands in the same
// order, so the statement-order fold runs once per class, on a
// representative, and its sum is scattered to every member — each cell
// still the exact operand sequence of the statement-major loop.
//
// A table's value at a configuration is one cell of a small grid — its
// projection entries, crossed for DML with the list's distinct
// maintenance rows — computed with the statement-major loop's own
// expressions. Numbering each table's distinct grid values and folding
// the numbers into one mixed-radix key per configuration costs one gather
// per table and configuration, and the classes are the distinct keys.
//
// It reports false, having written nothing, where that would not pay or
// cannot be done: when the distinct tables are more than half the
// statements (so a segment that repeats none), when a table has no
// projection (a clique wider than maxProjBits) or a grid larger than the
// list, when the key space passes 2³², and when the classes pass half
// the list.
func (k *RowKernel[C]) fillClasses(tables []*PlanTable, out []float64) bool {
	if len(tables) < 2 {
		return false
	}
	sc := classPool.Get().(*classScratch)
	defer func() {
		// The pool must not keep plan tables or side tables alive.
		clear(sc.dist)
		clear(sc.tabs)
		classPool.Put(sc)
	}()
	sc.dist, sc.of = sc.dist[:0], sc.of[:0]
	for _, pt := range tables {
		d := slices.Index(sc.dist, pt)
		if d < 0 {
			if 2*(len(sc.dist)+1) > len(tables) {
				return false
			}
			d, sc.dist = len(sc.dist), append(sc.dist, pt)
		}
		sc.of = append(sc.of, int32(d))
	}

	n := len(k.configs)
	limit := n / 2
	key := grow(&sc.key, n)
	clear(key)
	radix := uint64(1)
	sc.tabs, sc.grid = sc.tabs[:0], sc.grid[:0]
	for _, pt := range sc.dist {
		ct, ok := k.classTable(pt, sc)
		if !ok {
			return false
		}
		sc.tabs = append(sc.tabs, ct)
		grid := sc.grid[ct.off:]
		keys := grow(&sc.keys, len(grid))
		for g, v := range grid {
			keys[g] = math.Float64bits(v)
		}
		ids := grow(&sc.ids, len(grid))
		kd, ok := denseIDs(keys, ids, sc, limit)
		if !ok {
			return false
		}
		if kd == 1 {
			continue // the same value everywhere separates nothing
		}
		if radix > math.MaxUint32/uint64(kd) {
			return false // keys must stay distinct, so they may not wrap
		}
		cp := grow(&sc.cp, len(grid))
		for g, id := range ids {
			cp[g] = uint64(id) * radix
		}
		switch {
		case ct.pid == nil:
			for j, p := range ct.pos {
				key[j] += cp[p]
			}
		case ct.pos == nil:
			for j, q := range ct.pid {
				key[j] += cp[q]
			}
		default:
			for j, p := range ct.pos {
				key[j] += cp[int(p)*ct.kw+int(ct.pid[j])]
			}
		}
		radix *= uint64(kd)
	}
	cls := grow(&sc.cls, n)
	nc, ok := denseIDs(key, cls, sc, limit)
	if !ok {
		return false
	}

	// cv[d*nc+c] is table d's value in class c, read at the class's first
	// configuration; the fold adds them in statement order.
	cv := grow(&sc.cv, len(sc.tabs)*nc)
	for d := range sc.tabs {
		ct := &sc.tabs[d]
		for c, r := range sc.first {
			cv[d*nc+c] = sc.grid[ct.off+ct.cell(int(r))]
		}
	}
	sums := grow(&sc.sums, nc)
	clear(sums)
	for _, d := range sc.of {
		for c, v := range cv[int(d)*nc : int(d+1)*nc] {
			sums[c] += v
		}
	}
	for j, c := range cls {
		out[j] = sums[c]
	}
	return true
}

// classTable appends pt's grid values to sc.grid and describes how a
// configuration indexes them. Each grid value is the operand addCosts
// adds for a configuration at that cell, computed by the same
// expression from the same side-table values.
func (k *RowKernel[C]) classTable(pt *PlanTable, sc *classScratch) (classTable, bool) {
	proj := pt.proj
	if proj == nil {
		if pt.relevant != 0 {
			return classTable{}, false
		}
		proj = []float64{pt.heapCost}
	}
	ct := classTable{kw: 1, off: len(sc.grid)}
	if pt.relevant != 0 {
		ct.pos, _ = k.side(pt)
	}
	if pt.kind == planSelect {
		sc.grid = append(sc.grid, proj...)
		return ct, true
	}
	var per []float64
	ct.pid, per = k.perRowIDs(pt)
	ct.kw = len(per)
	if pt.kind == planInsert {
		for _, v := range per {
			sc.grid = append(sc.grid, float64(pt.rows*v))
		}
		return ct, true
	}
	if len(proj)*len(per) > len(k.configs) {
		return classTable{}, false
	}
	for _, p := range proj {
		for _, v := range per {
			sc.grid = append(sc.grid, p+float64(pt.rows*v))
		}
	}
	return ct, true
}

// denseIDs numbers the distinct values of keys in first-occurrence
// order: ids[i] is the number of keys[i], and afterwards sc.first[c] is
// the first index holding number c. It returns how many there are, or
// false once they pass limit.
func denseIDs(keys []uint64, ids []int32, sc *classScratch, limit int) (int, bool) {
	size := 1 << bits.Len(uint(2*min(len(keys), limit)))
	shift := 64 - bits.Len(uint(size-1))
	slots := grow(&sc.slots, size)
	clear(slots)
	sc.first = sc.first[:0]
	for i, key := range keys {
		for s := (key * 0x9e3779b97f4a7c15) >> shift; ; s = (s + 1) & uint64(size-1) {
			c := slots[s]
			if c == 0 {
				if len(sc.first) == limit {
					return 0, false
				}
				sc.first = append(sc.first, int32(i))
				slots[s] = int32(len(sc.first))
				ids[i] = int32(len(sc.first) - 1)
				break
			}
			if keys[sc.first[c-1]] == key {
				ids[i] = c - 1
				break
			}
		}
	}
	return len(sc.first), true
}

// grow returns (*buf)[:n], reallocating *buf when it is too short.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// addCosts adds pt.Cost(configs[j]) to every out[j]. The products carry
// an explicit float64 conversion, as in PlanTable.Cost: it forbids fusing
// rows*perRow into the surrounding add (arm64 FMA), which would round the
// kernel's cells and Cost differently.
func (k *RowKernel[C]) addCosts(pt *PlanTable, out []float64) {
	proj := pt.proj
	if proj == nil {
		if pt.relevant != 0 {
			// Clique wider than maxProjBits: no projection to gather from.
			for j, c := range k.configs {
				out[j] += pt.Cost(uint64(c))
			}
			return
		}
		proj = []float64{pt.heapCost} // every configuration projects to 0
	}
	pos, perRow := k.side(pt)
	switch pt.kind {
	case planSelect:
		for j, p := range pos {
			out[j] += proj[p]
		}
	case planInsert:
		for j, per := range perRow {
			out[j] += float64(pt.rows * per)
		}
	default: // planUpdate, planDelete
		for j, per := range perRow {
			out[j] += proj[pos[j]] + float64(pt.rows*per)
		}
	}
}

// maintSlot is the index of pt's writes factor in the maintenance side
// tables.
func maintSlot(pt *PlanTable) int {
	if pt.kind == planUpdate {
		return 1
	}
	return 0
}

// side returns the side tables pt's kind reads — positions unless it is
// an INSERT, maintenance unless it is a SELECT — building each on the
// first use of its relevant mask or writes factor.
func (k *RowKernel[C]) side(pt *PlanTable) (pos []uint16, perRow []float64) {
	w := maintSlot(pt)
	needPos, needPer := pt.kind != planInsert, pt.kind != planSelect
	k.mu.RLock()
	pos, perRow = k.pos[pt.relevant], k.perRow[w]
	k.mu.RUnlock()
	if (pos != nil || !needPos) && (perRow != nil || !needPer) {
		return pos, perRow
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if needPos && k.pos[pt.relevant] == nil {
		pos = make([]uint16, len(k.configs))
		for j, c := range k.configs {
			pos[j] = uint16(compress(uint64(c)&pt.relevant, pt.relevant))
		}
		k.pos[pt.relevant] = pos
	}
	if needPer && k.perRow[w] == nil {
		perRow = make([]float64, len(k.configs))
		for j, c := range k.configs {
			perRow[j] = pt.perRow(uint64(c) & pt.allMask)
		}
		k.perRow[w] = perRow
	}
	return k.pos[pt.relevant], k.perRow[w]
}

// perRowIDs returns the maintenance classes of pt's writes factor:
// perRowID[j] indexes vals, the distinct values of perRow.
func (k *RowKernel[C]) perRowIDs(pt *PlanTable) (perRowID []int32, vals []float64) {
	w := maintSlot(pt)
	k.mu.RLock()
	perRowID, vals = k.perRowID[w], k.perRowVals[w]
	k.mu.RUnlock()
	if perRowID != nil {
		return perRowID, vals
	}
	_, perRow := k.side(pt)
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.perRowID[w] == nil {
		perRowID = make([]int32, len(perRow))
		seen := make(map[uint64]int32)
		vals = nil
		for j, v := range perRow {
			id, ok := seen[math.Float64bits(v)]
			if !ok {
				id = int32(len(vals))
				seen[math.Float64bits(v)] = id
				vals = append(vals, v)
			}
			perRowID[j] = id
		}
		k.perRowID[w], k.perRowVals[w] = perRowID, vals
	}
	return k.perRowID[w], k.perRowVals[w]
}
