package cost

import "sync"

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
}

// NewRowKernel returns a kernel over configs, which it retains and the
// caller must not modify.
func NewRowKernel[C ~uint64](configs []C) *RowKernel[C] {
	return &RowKernel[C]{configs: configs, pos: make(map[uint64][]uint16)}
}

// Fill sets out[j] to the summed cost of tables under configs[j],
// accumulated in table order from 0; len(out) must equal the kernel's
// list length.
func (k *RowKernel[C]) Fill(tables []*PlanTable, out []float64) {
	clear(out)
	for _, pt := range tables {
		k.addCosts(pt, out)
	}
}

// addCosts adds pt.Cost(configs[j]) to every out[j]. The products carry
// an explicit float64 conversion, as in PlanTable.Cost and
// StatementCost: it forbids fusing rows*perRow into the surrounding add
// (arm64 FMA), which would round kernel and scalar results differently.
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

// side returns the side tables pt's kind reads — positions unless it is
// an INSERT, maintenance unless it is a SELECT — building each on the
// first use of its relevant mask or writes factor.
func (k *RowKernel[C]) side(pt *PlanTable) (pos []uint16, perRow []float64) {
	w := 0
	if pt.kind == planUpdate {
		w = 1
	}
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
