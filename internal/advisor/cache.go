package advisor

import (
	"slices"
	"sync"
	"sync/atomic"

	"dyndesign/internal/core"
	"dyndesign/internal/cost"
)

// execRow is one store entry: everything EXEC(segment, ·) needs for one
// segment content — the per-statement plan tables (shared with every
// statement, of any row, that the same problem resolved to an equal
// table) and the dense cost row over the store's candidate list. mu
// guards tables and costs; both are written once and immutable
// afterwards — BatchExec hands costs out by reference, so solver
// matrices alias it and eviction only drops the store's own reference.
// A compile failure leaves tables nil, so a healthy retry recompiles
// instead of replaying a dead error.
type execRow struct {
	mu     sync.Mutex
	tables []*cost.PlanTable
	costs  []float64
	// hash is the row's key; used the assembly number of the last
	// problem that attached it; prev and next its neighbours in the
	// store's recency list, toward the most and the least recently
	// attached row. The last three are guarded by ExecMemo.mu.
	hash       uint64
	used       uint64
	prev, next *execRow
}

// rowLayout is the candidate list every row of a store is dense over,
// with the position of each configuration in it and the row kernel
// whose side tables serve the list under the store's one cost world.
// Immutable once built: a change of candidate list or cost world builds
// a new layout (and purges the rows).
type rowLayout struct {
	configs []core.Config
	index   map[core.Config]int32
	kernel  *cost.RowKernel[core.Config]
}

func newRowLayout(configs []core.Config) *rowLayout {
	l := &rowLayout{configs: slices.Clone(configs), index: make(map[core.Config]int32, len(configs))}
	for j, c := range l.configs {
		l.index[c] = int32(j)
	}
	l.kernel = cost.NewRowKernel(l.configs)
	return l
}

// ExecMemo is the content-addressed store of what-if EXEC results: one
// row per distinct segment content, holding the segment's compiled plan
// tables and its cost under every candidate configuration. Keying by
// segment content instead of stage index is what lets one store outlive
// a single problem — a sliding window shifts every stage index between
// solves, but an unchanged segment keeps its row, so a re-solve costs
// only the segments that actually entered the window. Pass one via
// Options.Memo to retain it across recommendations.
//
// The store is pinned to a cost world (statistics + physical
// descriptions) and a candidate list; a problem assembled under a
// different world or list purges it instead of replaying dead rows.
//
// A capacity bounds the store in cells of 8 bytes. A row is charged its
// cost cells (the candidate list length) plus rowOverheadCells for what
// it retains besides them, so capacity × 8 bounds the store's bytes for
// a list of 7 configurations as for one of 1024. The bound is enforced
// by one sweep when a problem is assembled: whole rows are dropped,
// least recently attached first, and never a row of the problem in hand
// — so the charge stays at or below max(capacity, current problem's
// charge). Capacity 0 means unbounded, the right choice for one-shot
// runs. MemoStats reports occupancy and evictions in cost cells alone.
//
// One mutex guards the row map; each row has its own lock, held while
// its segment is compiled and costed, so two stages with identical
// content cost it once. Callers sharing a store serialize their solves
// (the advisor service does).
type ExecMemo struct {
	capacity int

	mu   sync.Mutex
	rows map[uint64]*execRow
	// lru links the rows most recently attached first, through their
	// prev and next fields; within one problem, later stages first.
	lru    recency
	world  uint64
	layout *rowLayout // nil until the first attach
	// assembly numbers the attach calls; rows are stamped with it.
	assembly      uint64
	evictions     int64
	invalidations int64

	probes probeCounters
}

// rowOverheadCells is what a stored row retains besides its cost cells,
// in cells: the execRow and its map entry, the table slice and its share
// of the compiled PlanTables. Measured on rows of one
// statement over 7 configurations (advisord's defaults), 56 B of which
// are the cost cells: 420–460 B a row on the test fixture's point queries
// (TestCappedMemoBoundsBytes) and ≈480 B in the heap profile of an
// advisord that had ingested 118 000 paper-mix statements, while every
// statement kept a table of its own. Since statements that compile alike
// share one table per problem, the fixture's rows retain 234 B when each
// solve takes in 500 new statements, 251 B at 40 and 306 B at 10. 64
// cells (512 B) covers all of these, so the charge still bounds the
// store's bytes by capacity × 8, now with room to spare. Charged by cost
// cells alone, the default 1<<20 cells of such rows were 150 000 rows,
// ≈70 MB, against the 8 MB the number reads as.
const rowOverheadCells = 64

// NewMemo builds an EXEC row store bounded to capacity cells, each row
// charged its cost cells plus rowOverheadCells; capacity <= 0 means
// unbounded. Pass it via Options.Memo to share it across
// recommendations.
func NewMemo(capacity int) *ExecMemo {
	return &ExecMemo{capacity: max(capacity, 0)}
}

// attach binds a problem being assembled to the store: it pins the
// store to the problem's cost world and candidate list (purging rows
// computed under any other), resolves one row per stage from the
// segment content hashes — creating empty rows for unseen content —
// and sweeps the store back under its capacity. fresh reports that it
// created every row it returns.
func (c *ExecMemo) attach(world uint64, configs []core.Config, segHash []uint64) (_ *rowLayout, _ []*execRow, fresh bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.layout == nil || c.world != world || !slices.Equal(c.layout.configs, configs) {
		if c.layout != nil {
			c.invalidations++
			c.rows = nil
			c.lru = recency{}
		}
		c.world, c.layout = world, newRowLayout(configs)
	}
	if len(c.rows) == 0 {
		c.rows = make(map[uint64]*execRow, len(segHash))
	}
	c.assembly++
	rows := make([]*execRow, len(segHash))
	fresh = true
	for i, h := range segHash {
		r := c.rows[h]
		if r == nil {
			r = &execRow{hash: h}
			c.rows[h] = r
		} else {
			fresh = fresh && r.used == c.assembly
			c.lru.remove(r)
		}
		c.lru.pushFront(r)
		r.used = c.assembly
		rows[i] = r
	}
	// The capacity sweep: drop the rows no problem has attached for the
	// longest time; reaching a row of this assembly means only the
	// problem in hand is left, and that is never evicted.
	width := len(configs)
	for c.capacity > 0 && len(c.rows)*(width+rowOverheadCells) > c.capacity {
		r := c.lru.back
		if r.used == c.assembly {
			break
		}
		c.lru.remove(r)
		delete(c.rows, r.hash)
		c.evictions += int64(width)
	}
	return c.layout, rows, fresh
}

// recency is a doubly linked list of rows through their prev and next
// fields, front the most recent.
type recency struct{ front, back *execRow }

// pushFront links r, which is in no list, at the front.
func (l *recency) pushFront(r *execRow) {
	r.prev, r.next = nil, l.front
	if l.front != nil {
		l.front.prev = r
	} else {
		l.back = r
	}
	l.front = r
}

// remove unlinks r.
func (l *recency) remove(r *execRow) {
	if r.prev != nil {
		r.prev.next = r.next
	} else {
		l.front = r.next
	}
	if r.next != nil {
		r.next.prev = r.prev
	} else {
		l.back = r.prev
	}
	r.prev, r.next = nil, nil
}

// ProbeStats counts EXEC lookups against the row store, in cells: a
// whole-row lookup counts one per configuration, a scalar lookup one.
type ProbeStats struct {
	Lookups int64
	Hits    int64
}

// HitRate returns the fraction of lookups served from stored rows, 0
// when nothing was looked up.
func (s ProbeStats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// probeCounters is the concurrent accumulator behind a ProbeStats.
type probeCounters struct {
	lookups atomic.Int64
	hits    atomic.Int64
}

func (p *probeCounters) note(lookups, hits int) {
	p.lookups.Add(int64(lookups))
	p.hits.Add(int64(hits))
}

func (p *probeCounters) stats() ProbeStats {
	return ProbeStats{Lookups: p.lookups.Load(), Hits: p.hits.Load()}
}

// MemoStats describes an EXEC row store's occupancy and lifetime
// counters — the observability surface a capped, long-lived store needs
// so growth and eviction pressure are measurable instead of invisible.
// Entries, Capacity, and Evictions are in cells.
type MemoStats struct {
	// ProbeStats is the lifetime view over every problem the store
	// served; a recommendation's own share is Recommendation.Stats.
	ProbeStats
	// Entries is the current occupancy; Capacity the configured bound
	// (0 = unbounded).
	Entries  int64
	Capacity int
	// Evictions counts cells dropped (a whole row at a time) by the
	// capacity sweep.
	Evictions int64
	// Invalidations counts whole-store purges forced by a change of cost
	// world (refreshed statistics) or candidate list.
	Invalidations int64
}

// Stats returns a snapshot of the store's counters.
func (c *ExecMemo) Stats() MemoStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := MemoStats{
		ProbeStats:    c.probes.stats(),
		Capacity:      c.capacity,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
	}
	if c.layout != nil {
		st.Entries = int64(len(c.rows) * len(c.layout.configs))
	}
	return st
}

// CostStats is the lightweight instrumentation of one advisor run's
// what-if costing: how many statement costings the cost model actually
// performed and how well the EXEC row store served the solvers.
type CostStats struct {
	// WhatIfCalls counts individual what-if statement costings — the
	// unit the paper's Figure 4 discussion treats as the advisor's
	// dominant expense. It counts costings the solvers *demanded* (cells
	// not served from a stored row × statements, attempted evaluations
	// included even when costing fails); row hits never count.
	WhatIfCalls int64
	// ProbeStats is this problem's own row-store traffic — not the
	// store's lifetime (see ExecMemo.Stats): a first solve over unseen
	// segments reports a hit rate of 0, an unchanged-window re-solve 1.
	ProbeStats
	// PlanTableBuilds counts the statements resolved into plan tables
	// for store rows — once per distinct segment, not per configuration —
	// whether the problem's intern set compiled a table for a statement
	// or shared one it held. PlanTableBytes is the heap the distinct
	// tables retain, each counted once however many statements share it.
	PlanTableBuilds int64
	PlanTableBytes  int64
	// BatchedLookups counts configurations evaluated through the
	// BatchExec frontier entry point (row hits included).
	BatchedLookups int64
}

// add accumulates counters (used when several models back one run).
func (s CostStats) add(o CostStats) CostStats {
	return CostStats{
		WhatIfCalls:     s.WhatIfCalls + o.WhatIfCalls,
		ProbeStats:      ProbeStats{Lookups: s.Lookups + o.Lookups, Hits: s.Hits + o.Hits},
		PlanTableBuilds: s.PlanTableBuilds + o.PlanTableBuilds,
		PlanTableBytes:  s.PlanTableBytes + o.PlanTableBytes,
		BatchedLookups:  s.BatchedLookups + o.BatchedLookups,
	}
}

// statsProvider is implemented by cost models that expose CostStats.
type statsProvider interface {
	costStats() CostStats
}
