// Package advisor is the user-facing design advisor: it binds the
// engine's what-if cost model to the solvers in internal/core and turns
// workload traces into dynamic physical design recommendations.
//
// The advisor plays the role of the paper's "constrained dynamic design
// advisor": given a workload sequence, an initial configuration, a space
// bound b and a change bound k, it recommends a sequence of physical
// designs. The classical static advisor and the unconstrained dynamic
// advisor of Agrawal et al. are the k = 0 and k = ∞ special cases.
package advisor

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dyndesign/internal/catalog"
	"dyndesign/internal/core"
	"dyndesign/internal/cost"
	"dyndesign/internal/engine"
	"dyndesign/internal/obs"
	"dyndesign/internal/sql"
	"dyndesign/internal/workload"
)

// DesignSpace is the set of candidate structures and configurations a
// recommendation may use.
type DesignSpace struct {
	Table string
	// Structures are the candidate indexes; configuration bit i refers
	// to Structures[i]. At most core.MaxStructures entries.
	Structures []catalog.IndexDef
	// Configs optionally fixes the allowed configurations explicitly
	// (the paper's experiments use {∅, I(a), I(b), I(c), I(d), I(a,b),
	// I(c,d)}). When nil, all subsets of Structures within the space
	// bound are enumerated (which requires len(Structures) <= 20).
	Configs []core.Config
}

// StructureNames returns the canonical names of the candidate
// structures, indexed like configuration bits.
func (s *DesignSpace) StructureNames() []string {
	names := make([]string, len(s.Structures))
	for i, def := range s.Structures {
		names[i] = def.Name()
	}
	return names
}

// SingleIndexConfigs returns the configuration list used by the paper's
// experiments: the empty configuration plus one configuration per
// structure ("a physical design configuration consists of at most one
// index").
func SingleIndexConfigs(numStructures int) []core.Config {
	out := make([]core.Config, 0, numStructures+1)
	out = append(out, core.Config(0))
	for i := 0; i < numStructures; i++ {
		out = append(out, core.ConfigOf(i))
	}
	return out
}

// Options configures a recommendation run.
type Options struct {
	// K is the change bound; core.Unconstrained disables it.
	K int
	// Policy selects the change-counting rule (default FreeEndpoints,
	// which reproduces the paper's Table 2; see DESIGN.md §3).
	Policy core.ChangePolicy
	// SpaceBound is b in pages; 0 means unbounded.
	SpaceBound float64
	// Strategy picks the solver (default the exact k-aware graph).
	Strategy core.Strategy
	// SegmentSize groups consecutive statements into optimization
	// stages (default 1: one stage per statement, as in the paper's
	// problem definition). Labelled workloads never mix labels within a
	// segment.
	SegmentSize int
	// Initial is C0. The default is the empty configuration.
	Initial core.Config
	// Final optionally constrains the configuration after the last
	// statement (the paper's experiments pin it to empty).
	Final *core.Config

	// Timeout, when positive, bounds the wall-clock time of each solve
	// attempt (each ladder rung when Fallback is on, the single solve
	// otherwise).
	Timeout time.Duration
	// MaxWhatIfCalls, when positive, bounds the EXEC evaluations each
	// solve attempt may request; exceeding it aborts the attempt with
	// core.ErrWhatIfBudget.
	MaxWhatIfCalls int64
	// Fallback enables the resilient degradation ladder: when the
	// chosen strategy times out, exhausts its budget, faults, or
	// panics, progressively cheaper strategies answer instead
	// (core.AutoLadder — which also leads with the partitioned solver
	// for candidate spans above the exact hypercube ceiling), ending at
	// LastKnownGood when set.
	Fallback bool
	// LastKnownGood optionally supplies a previously recommended design
	// sequence adopted (after revalidation) when every solving rung
	// fails. Only consulted when Fallback is on.
	LastKnownGood *core.Solution

	// Parallelism bounds the worker count of the plan-table compile that
	// validates the workload, the cost-table build, and the data-parallel
	// solver phases (core.Problem.Parallelism): 0 means one worker per
	// CPU, 1 forces the serial path. Parallel and serial solves produce
	// bit-identical results.
	Parallelism int

	// Memo, when non-nil, supplies a retained what-if EXEC row store
	// instead of the fresh per-problem default. Rows are keyed by
	// segment content, so a long-running service that re-solves
	// overlapping windows costs only the segments it has not seen;
	// stale rows are purged automatically when the cost world
	// (statistics, physical descriptions) or the candidate list changes.
	// Callers sharing one store must serialize their solves. See NewMemo.
	Memo *ExecMemo

	// Cache, when non-nil, supplies the solve cache (core.SolveCache)
	// instead of the fresh per-problem default. Its cost tables are keyed
	// by the problem's own model and serve only that problem's solves,
	// but its retained seed pass carries from one Recommend to the next:
	// from the cache's second solve on, a window that slid by a few
	// segments over a retained Memo and Cache recomputes only the seed
	// stages the slide changed, and answers what a cold solve answers,
	// bit for bit. The cache retains one window, the last solved on it:
	// solves of other windows on it (the explain audit's resamples) cost
	// the next slide one full seed pass.
	Cache *core.SolveCache

	// Tracer, when non-nil, receives spans from the whole advisor
	// pipeline: statement validation and problem assembly
	// ("advisor.problem"), the end-to-end recommendation
	// ("advisor.recommend"), and every solver-phase span below them
	// (DESIGN.md §9). The nil default is the disabled tracer.
	Tracer *obs.Tracer
}

// resilient reports whether the options ask for the supervised solve
// path: any robustness knob turns it on, since budgets and deadlines
// are enforced by the supervisor.
func (o *Options) resilient() bool {
	return o.Fallback || o.Timeout > 0 || o.MaxWhatIfCalls > 0
}

// Advisor recommends dynamic physical designs for one table of a
// database.
type Advisor struct {
	db    *engine.Database
	space DesignSpace
	// size reports the table's live row and page counts without the
	// database lock (engine.Database.TableSize).
	size func() (rows int64, pages int)
	// world is the cost world of the last problem: the statistics of the
	// Analyze that preceded New, the table's size, and the candidate
	// indexes sized from both. Problem moves it to the table's current
	// size when DML has changed it; StatementCosts reads the last one.
	world atomic.Pointer[costWorld]
}

// costWorld is the physical description every what-if estimate reads.
type costWorld struct {
	table cost.TablePhys
	phys  []cost.IndexPhys // hypothetical physical description per structure
}

// New builds an advisor over an analyzed table. The table must have
// statistics (Database.Analyze) so what-if estimates are meaningful.
func New(db *engine.Database, space DesignSpace) (*Advisor, error) {
	if len(space.Structures) == 0 {
		return nil, fmt.Errorf("advisor: design space has no candidate structures")
	}
	if len(space.Structures) > core.MaxStructures {
		return nil, fmt.Errorf("advisor: %d candidate structures exceed the maximum %d",
			len(space.Structures), core.MaxStructures)
	}
	tp, err := db.TablePhys(space.Table)
	if err != nil {
		return nil, err
	}
	if tp.Stats == nil {
		return nil, fmt.Errorf("advisor: table %q has no statistics; run Analyze first", space.Table)
	}
	size, err := db.TableSize(space.Table)
	if err != nil {
		return nil, err
	}
	a := &Advisor{db: db, space: space, size: size}
	w, err := a.newWorld(tp)
	if err != nil {
		return nil, err
	}
	a.world.Store(w)
	return a, nil
}

// newWorld sizes the candidate indexes for the table description tp.
func (a *Advisor) newWorld(tp cost.TablePhys) (*costWorld, error) {
	w := &costWorld{table: tp}
	for _, def := range a.space.Structures {
		ip, err := cost.HypotheticalIndex(def, tp)
		if err != nil {
			return nil, err
		}
		w.phys = append(w.phys, ip)
	}
	return w, nil
}

// currentWorld returns the cost world at the table's current size. A
// replay's INSERTs and DELETEs change the table under a long-lived
// advisor; pricing the next problem at the size New saw would drift from
// what the engine then measures by the rows added since. The statistics
// stay those of the last Analyze, scaled to the live row count.
func (a *Advisor) currentWorld() (*costWorld, error) {
	w := a.world.Load()
	rows, pages := a.size()
	if float64(rows) == w.table.Rows && float64(pages) == w.table.HeapPages {
		return w, nil
	}
	tp := w.table
	tp.Rows, tp.HeapPages = float64(rows), float64(pages)
	w, err := a.newWorld(tp)
	if err != nil {
		return nil, err
	}
	a.world.Store(w)
	return w, nil
}

// Space returns the advisor's design space.
func (a *Advisor) Space() *DesignSpace { return &a.space }

// StatsFingerprint returns the content hash of the tuned table's
// statistics — the cost-world epoch under which every what-if estimate
// is computed. Durable advisor state (installed design, last-known-good
// solution, drift-detector costs) records it at snapshot time: a
// restart whose statistics hash differently must treat cost-derived
// state as stale instead of replaying estimates from a dead world.
func (a *Advisor) StatsFingerprint() uint64 { return a.world.Load().table.Stats.Fingerprint() }

// StatementCosts sets out[j] to EXEC(s, configs[j]), every price read off
// one plan table compiled over the design space's structures. A bit
// outside the space, len(out) != len(configs) or a statement the compile
// rejects is an error, and out is left as it was.
func (a *Advisor) StatementCosts(s workload.Statement, configs []core.Config, out []float64) error {
	if len(out) != len(configs) {
		return fmt.Errorf("advisor: %d costs asked for %d configurations", len(out), len(configs))
	}
	w := a.world.Load()
	for _, c := range configs {
		if outside := uint64(c) >> uint(len(w.phys)); outside != 0 {
			return fmt.Errorf("advisor: configuration bit %d outside the design space",
				len(w.phys)+bits.TrailingZeros64(outside))
		}
	}
	pt, err := cost.CompilePlan(s.Stmt, w.table, w.phys)
	if err != nil {
		return err
	}
	for j, c := range configs {
		out[j] = pt.Cost(uint64(c))
	}
	return nil
}

// StatementCost is StatementCosts for one configuration: the EXEC(S, C)
// primitive of advisord's ingest check and of calibration.
func (a *Advisor) StatementCost(s workload.Statement, c core.Config) (float64, error) {
	var out [1]float64
	err := a.StatementCosts(s, []core.Config{c}, out[:])
	return out[0], err
}

// whatIfModel implements core.FallibleModel over the engine's what-if
// cost functions. It is safe for concurrent use: each stage's store row
// has its own lock, TRANS and SIZE are pure functions of immutable
// physical descriptions, and the counters are atomic — so one Problem
// can be shared by several solver goroutines and by the parallel matrix
// build.
type whatIfModel struct {
	table cost.TablePhys
	phys  []cost.IndexPhys
	segs  []workload.Segment
	memo  *ExecMemo
	// build[s] is cost.BuildCost of structure s, priced once per model:
	// Trans sums these, and TransParts hands the slice out.
	build []float64
	// rows[i] is stage i's row of the EXEC store, resolved from the
	// segment's content hash when the problem is assembled (so entries
	// survive the stage renumbering a sliding window causes between
	// solves); layout is the candidate list the rows are dense over.
	rows   []*execRow
	layout *rowLayout
	// fresh is set when attach created every row, so none holds tables
	// or costs but what this problem puts there; the first StoredRows
	// call clears it.
	fresh atomic.Bool
	// pinned is the candidate list attach pinned the rows to, the list
	// core passes BatchExec for a whole row.
	pinned []core.Config
	// plans is the problem's intern set: every row this problem compiles
	// resolves its statements through it, so statements that compile
	// alike share one table. It lives as long as the problem.
	plans *cost.PlanSet
	// whatIfCalls counts statement costings demanded of the model —
	// cells not served from a stored row times statements, attempted
	// evaluations included even when costing fails. See CostStats.
	whatIfCalls atomic.Int64
	// probes counts this problem's row-store lookups and hits, in cells.
	probes probeCounters
	// planBuilds and batchedLookups instrument the batched costing
	// layer: statements resolved into plan tables, and configurations
	// evaluated through BatchExec.
	planBuilds     atomic.Int64
	batchedLookups atomic.Int64
	// errMu guards execErr, the first costing failure since the last
	// TakeErr drain (the core.FallibleModel contract).
	errMu   sync.Mutex
	execErr error
	// interOnce guards interactions, the memoized ExecInteractions
	// cliques (computed lazily — only the partitioned solver asks).
	interOnce    sync.Once
	interactions []core.Config
}

// segmentHash fingerprints a segment's statement content — the part of
// EXEC(stage, ·) that depends on the workload. It folds the segment's
// length and each statement's TextHash, computed once when the statement
// was parsed, with one order-sensitive multiply-rotate step (xxHash's
// round) per statement. It is the definition segmentKeys computes.
func segmentHash(seg workload.Segment) uint64 {
	return foldStatements(foldHash(0, uint64(len(seg.Statements))), seg.Statements)
}

// segmentKeys returns segmentHash of every segment, bit for bit, in one
// pass over the window. One segment's fold is a chain of dependent
// multiply-rotate steps; four segments are folded side by side, so the
// four chains overlap in the processor instead of waiting on each
// other. The segments' common length is folded four-wide and each
// one's remainder alone; the last len(segs) % 4 segments go through
// segmentHash.
func segmentKeys(segs []workload.Segment) []uint64 {
	keys := make([]uint64, len(segs))
	i := 0
	for ; i+4 <= len(segs); i += 4 {
		s0, s1, s2, s3 := segs[i].Statements, segs[i+1].Statements, segs[i+2].Statements, segs[i+3].Statements
		h0, h1 := foldHash(0, uint64(len(s0))), foldHash(0, uint64(len(s1)))
		h2, h3 := foldHash(0, uint64(len(s2))), foldHash(0, uint64(len(s3)))
		n := min(len(s0), len(s1), len(s2), len(s3))
		for j := 0; j < n; j++ {
			h0 = foldHash(h0, s0[j].TextHash())
			h1 = foldHash(h1, s1[j].TextHash())
			h2 = foldHash(h2, s2[j].TextHash())
			h3 = foldHash(h3, s3[j].TextHash())
		}
		keys[i], keys[i+1] = foldStatements(h0, s0[n:]), foldStatements(h1, s1[n:])
		keys[i+2], keys[i+3] = foldStatements(h2, s2[n:]), foldStatements(h3, s3[n:])
	}
	for ; i < len(segs); i++ {
		keys[i] = segmentHash(segs[i])
	}
	return keys
}

// foldStatements folds each statement's TextHash into h, in order.
func foldStatements(h uint64, stmts []workload.Statement) uint64 {
	for _, s := range stmts {
		h = foldHash(h, s.TextHash())
	}
	return h
}

func foldHash(h, v uint64) uint64 {
	return bits.RotateLeft64(h+v*0xC2B2AE3D27D4EB4F, 31) * 0x9E3779B185EBCA87
}

// worldSeed keys worldVersion. One seed per process is enough: the EXEC
// store the version pins is process-local, and the version is never
// printed or persisted.
var worldSeed = maphash.MakeSeed()

// worldVersion fingerprints the cost world the model evaluates in: the
// statistics epoch plus every physical description. It deliberately
// excludes the workload segments — the EXEC memo keys those per entry,
// so an unchanged world keeps memo entries valid across windows. Floats
// are written as their bit words, so +0 and −0 key apart.
func (m *whatIfModel) worldVersion() uint64 {
	var b []byte
	word := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	str := func(s string) { word(uint64(len(s))); b = append(b, s...) }
	str(m.table.Name)
	word(math.Float64bits(m.table.Rows))
	word(math.Float64bits(m.table.HeapPages))
	word(m.table.Stats.Fingerprint())
	word(uint64(len(m.phys)))
	for _, ip := range m.phys {
		str(ip.Def.Name())
		word(math.Float64bits(ip.Height))
		word(math.Float64bits(ip.LeafPages))
		word(math.Float64bits(ip.TotalPages))
		word(uint64(ip.KeyBytes))
	}
	return maphash.Bytes(worldSeed, b)
}

// compile returns stage's plan tables, resolving them into the stage's
// store row r on first use; the caller holds r.mu. Problem assembly
// resolves every row it validates, so a solve finds the tables here; a
// model built by hand, or a row whose compile failed, resolves them now
// through the intern set itself, and the failure means the model's world
// changed since validation.
func (m *whatIfModel) compile(stage int, r *execRow) ([]*cost.PlanTable, error) {
	if r.tables == nil {
		if j, err := m.resolve(stage, r, m.plans.Compile); err != nil {
			return nil, fmt.Errorf("advisor: costing validated statement %q: %w", m.segs[stage].Statements[j].SQL, err)
		}
		m.planBuilds.Add(int64(len(r.tables)))
	}
	return r.tables, nil
}

// resolve stores stage's plan tables in its row r, which holds none; the
// caller holds r.mu and counts the statements resolved. Each statement
// goes through the problem's intern set, by compile — a worker's front
// of it, or the set's own Compile: a statement pays for its template
// once per problem and for its literals' histogram searches, and
// statements that compile alike share one table, after which every
// configuration evaluation is O(statements) masked table lookups. On a
// failure it returns the index in the segment of the statement that
// failed and stores nothing.
func (m *whatIfModel) resolve(stage int, r *execRow, compile func(sql.Statement) (*cost.PlanTable, error)) (int, error) {
	stmts := m.segs[stage].Statements
	tables := make([]*cost.PlanTable, len(stmts))
	for i, s := range stmts {
		pt, err := compile(s.Stmt)
		if err != nil {
			return i, err
		}
		tables[i] = pt
	}
	r.tables = tables
	return 0, nil
}

// sumTables is EXEC(segment, c) over compiled plan tables: the
// statement costs accumulated in statement order — the scalar
// definition of the cell cost.RowKernel fills rows of.
func sumTables(tables []*cost.PlanTable, c core.Config) float64 {
	total := 0.0
	for _, pt := range tables {
		total += pt.Cost(uint64(c))
	}
	return total
}

// noteProbe records row-store traffic on the problem's own counters and
// the store's lifetime ones.
func (m *whatIfModel) noteProbe(lookups, hits int) {
	m.probes.note(lookups, hits)
	m.memo.probes.note(lookups, hits)
}

// Exec implements core.CostModel: the summed what-if cost of the
// segment's statements under configuration c — read from the stage's
// stored row when the row is filled and c is a candidate, summed from
// the stage's plan tables otherwise (a scalar evaluation never fills a
// row). Statements are validated when the problem is built, so a
// compile error here means the model's world changed mid-solve; the
// failure is recorded for TakeErr, the evaluation returns +Inf, and
// nothing is stored so a healthy retry can recompute the cell.
func (m *whatIfModel) Exec(stage int, c core.Config) float64 {
	r := m.rows[stage]
	r.mu.Lock()
	if r.costs != nil {
		if j, ok := m.layout.index[c]; ok {
			v := r.costs[j]
			r.mu.Unlock()
			m.noteProbe(1, 1)
			return v
		}
	}
	tables, err := m.compile(stage, r)
	r.mu.Unlock()
	m.noteProbe(1, 0)
	// Count the attempted statement costings before knowing whether
	// they succeed: the counter attributes demanded work per cell, and
	// an error path that skipped it would under-report exactly when
	// diagnosing matters most.
	m.whatIfCalls.Add(int64(len(m.segs[stage].Statements)))
	if err != nil {
		m.recordErr(err)
		return math.Inf(1)
	}
	return sumTables(tables, c)
}

// BatchExec implements core.BatchCostModel with one row-store access
// per stage. The result is always a slice the model owns — out is never
// written, so a caller recycling an earlier result as out cannot clobber
// a stored row. Over the store's candidate list a filled row is
// returned by reference; an empty one is filled from the stage's plan
// tables by the layout's row kernel — by configuration classes where the
// segment repeats a table (cost.RowKernel.Fill) — published as the
// stage's row, and returned, under the row's lock, so a stage with the
// same content waits and then shares it. Any other list (a partitioned
// component's projection) is filled by a kernel of its own and stores
// nothing.
func (m *whatIfModel) BatchExec(stage int, configs []core.Config, _ []float64) []float64 {
	n := len(configs)
	m.batchedLookups.Add(int64(n))
	whole := m.whole(configs)
	r := m.rows[stage]
	r.mu.Lock()
	defer r.mu.Unlock()
	if whole && r.costs != nil {
		m.noteProbe(n, n)
		return r.costs
	}
	m.noteProbe(n, 0)
	m.whatIfCalls.Add(int64(n) * int64(len(m.segs[stage].Statements)))
	out := make([]float64, n)
	tables, err := m.compile(stage, r)
	if err != nil {
		m.recordErr(err)
		for j := range out {
			out[j] = math.Inf(1)
		}
		return out
	}
	kernel := m.layout.kernel
	if !whole {
		kernel = cost.NewRowKernel(configs)
	}
	kernel.Fill(tables, out)
	if whole {
		r.costs = out
	}
	return out
}

// StoredRows implements core.StoredRowModel: one pass over the stages'
// store rows hands every filled row over by reference, as BatchExec
// would, and names the stages whose rows are empty; the probe counters
// take the served rows' lookups and hits in one add each, the totals
// per-stage BatchExec calls would add. Only the list the rows are dense
// over is served from the store. The first call on a problem whose rows
// attach created, before any build filled one, names every stage without
// a walk.
func (m *whatIfModel) StoredRows(configs []core.Config, rows [][]float64) (missing []int) {
	if m.fresh.CompareAndSwap(true, false) {
		missing = make([]int, len(m.rows))
		for i := range missing {
			missing[i] = i
		}
		return missing
	}
	whole := m.whole(configs)
	for i, r := range m.rows {
		var costs []float64
		if whole {
			r.mu.Lock()
			costs = r.costs
			r.mu.Unlock()
		}
		if costs == nil {
			missing = append(missing, i)
			continue
		}
		rows[i] = costs
	}
	served := (len(m.rows) - len(missing)) * len(configs)
	m.batchedLookups.Add(int64(served))
	m.noteProbe(served, served)
	return missing
}

// whole reports whether configs is the candidate list the store's rows
// are dense over: by header when it is the list attach pinned, which is
// the one core asks full rows for, and by value otherwise.
func (m *whatIfModel) whole(configs []core.Config) bool {
	if len(configs) == len(m.pinned) && (len(configs) == 0 || &configs[0] == &m.pinned[0]) {
		return true
	}
	return slices.Equal(configs, m.layout.configs)
}

// recordErr keeps the first costing failure for TakeErr.
func (m *whatIfModel) recordErr(err error) {
	m.errMu.Lock()
	if m.execErr == nil {
		m.execErr = err
	}
	m.errMu.Unlock()
}

// TakeErr implements core.FallibleModel: it returns the first costing
// failure since the previous drain and clears it.
func (m *whatIfModel) TakeErr() error {
	m.errMu.Lock()
	defer m.errMu.Unlock()
	err := m.execErr
	m.execErr = nil
	return err
}

// costStats implements statsProvider.
func (m *whatIfModel) costStats() CostStats {
	return CostStats{
		WhatIfCalls:     m.whatIfCalls.Load(),
		ProbeStats:      m.probes.stats(),
		PlanTableBuilds: m.planBuilds.Load(),
		PlanTableBytes:  m.plans.Bytes(),
		BatchedLookups:  m.batchedLookups.Load(),
	}
}

// Trans implements core.CostModel: build costs for added structures, in
// ascending structure order, plus drop costs for removed ones. It walks
// the bits of the two differences instead of listing them and reads the
// build costs attach priced, so a call allocates nothing and derives
// nothing.
func (m *whatIfModel) Trans(from, to core.Config) float64 {
	total := 0.0
	for added := uint64(to &^ from); added != 0; added &= added - 1 {
		total += m.build[bits.TrailingZeros64(added)]
	}
	total += float64(bits.OnesCount64(uint64(from&^to))) * cost.DropCost()
	return total
}

// TransParts implements core.AdditiveTransModel: TRANS decomposes per
// structure into one build cost per added index and one flat drop cost
// per removed one — the capability that lets the exact solvers replace
// the all-pairs relaxation with the hypercube lattice kernel. add is the
// model's own build-cost slice; callers only read it.
func (m *whatIfModel) TransParts() (add, drop []float64) {
	drop = make([]float64, len(m.phys))
	for s := range drop {
		drop[s] = cost.DropCost()
	}
	return m.build, drop
}

// ExecInteractions implements core.InteractionModel: one clique per
// workload statement holding the candidate indexes that can change that
// statement's access-path choice. The planner picks the single cheapest
// index path per statement, so a statement's cost depends only on the
// indexes relevant to it — indexes whose solo what-if probe beats (or
// ties, given the planner's index-preferring tie-break) the heap scan.
// Index-maintenance costs (INSERT, and the write half of UPDATE/DELETE)
// are per-structure additive and so contribute no interaction edges.
// Two indexes never sharing a clique therefore never co-affect any
// EXEC term, which is exactly the independence SolvePartitioned
// factors on.
func (m *whatIfModel) ExecInteractions() []core.Config {
	m.interOnce.Do(func() {
		seen := make(map[core.Config]bool)
		for i := range m.segs {
			// The plan tables record each statement's relevant mask —
			// the indexes whose solo probe beats (or ties, given the
			// planner's index-preferring tie-break) the heap scan —
			// which is exactly the clique the solo ChooseAccess probes
			// used to derive. Compile failures surface through Exec,
			// not here; a failing stage just contributes no cliques,
			// as its per-index probes would all have errored too.
			r := m.rows[i]
			r.mu.Lock()
			tables, err := m.compile(i, r)
			r.mu.Unlock()
			if err != nil {
				continue
			}
			for _, pt := range tables {
				cl := core.Config(pt.RelevantMask())
				if cl.Count() < 2 || seen[cl] {
					continue // singletons add no edges
				}
				seen[cl] = true
				m.interactions = append(m.interactions, cl)
			}
		}
	})
	return m.interactions
}

// Size implements core.CostModel: total pages of the configuration.
func (m *whatIfModel) Size(c core.Config) float64 {
	total := 0.0
	for b := uint64(c); b != 0; b &= b - 1 {
		total += m.phys[bits.TrailingZeros64(b)].TotalPages
	}
	return total
}

// attach binds the model to the EXEC store: the store is pinned to this
// model's cost world and candidate list — rows computed under refreshed
// statistics, different physical descriptions, or another list are
// purged instead of replayed — and each stage resolves its row by
// segment content (segmentKeys). It also gives the model its own, empty
// intern set and prices each structure's build once.
func (m *whatIfModel) attach(configs []core.Config) {
	m.pinned = configs
	var fresh bool
	m.layout, m.rows, fresh = m.memo.attach(m.worldVersion(), configs, segmentKeys(m.segs))
	m.fresh.Store(fresh)
	m.plans = cost.NewPlanSet(m.table, m.phys)
	m.build = make([]float64, len(m.phys))
	for s, ip := range m.phys {
		m.build[s] = cost.BuildCost(ip, m.table)
	}
}

// compileRun is about how many statements validate hands a worker at a
// time: rows are handed out one at a time once they hold this many.
const compileRun = 32

// validate validates the window by compiling it: every stage whose store
// row holds no plan tables resolves them, on up to workers goroutines of
// core's pool, each through a front of its own over the problem's intern
// set, so a worker that meets a template and numbers it has met takes no
// lock. Cost errors are schema and type errors — the compile rejects the
// same statements under any configuration, the ones StatementCosts
// rejects — so a row with tables was validated when it was compiled, from
// this very content under the pinned cost world, and a slide validates
// the entering segment, not the window. The error is the one a serial
// pass over the window would give: the failing statement with the lowest
// window index, whichever worker met it. A cancelled or expired ctx
// stops the compile between segments and is the error.
func (m *whatIfModel) validate(ctx context.Context, workers int) error {
	last := m.segs[len(m.segs)-1]
	stmts := last.Start + len(last.Statements) - m.segs[0].Start
	var pending []int
	if m.fresh.Load() {
		pending = make([]int, len(m.rows))
		for i := range pending {
			pending[i] = i
		}
	} else {
		for i, r := range m.rows {
			r.mu.Lock()
			if r.tables == nil {
				pending = append(pending, i)
			}
			r.mu.Unlock()
		}
	}
	// Rows are handed out in runs of about compileRun statements, so the
	// workers on one-statement stages do not meet at the counter on every
	// row; each worker adds its count of statements resolved once.
	run := max(1, compileRun*len(m.segs)/stmts)
	errs := make([]error, len(pending))
	var next atomic.Int64
	err := core.ParallelFor(ctx, workers, min(workers, len(pending)), func(int) {
		front := m.plans.Front()
		built := 0
		defer func() { m.planBuilds.Add(int64(built)) }()
		for ctx.Err() == nil {
			lo := int(next.Add(int64(run))) - run
			for k := lo; k < min(lo+run, len(pending)); k++ {
				i := pending[k]
				seg, r := m.segs[i], m.rows[i]
				j, err := 0, error(nil)
				r.mu.Lock()
				if r.tables == nil {
					if j, err = m.resolve(i, r, front.Compile); err == nil {
						built += len(seg.Statements)
					}
				}
				r.mu.Unlock()
				if err == nil {
					continue
				}
				switch s := seg.Statements[j]; s.Stmt.(type) {
				case *sql.Select, *sql.Insert, *sql.Update, *sql.Delete:
					errs[k] = fmt.Errorf("advisor: statement %d (%q): %w", seg.Start+j, s.SQL, err)
				default:
					errs[k] = fmt.Errorf("advisor: statement %d (%q) is not a workload statement", seg.Start+j, s.SQL)
				}
			}
			if lo+run >= len(pending) {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Problem assembles the core problem instance for a workload under the
// given options. It validates the statements against the schema up
// front by compiling them, on opts.Parallelism workers (see
// whatIfModel.validate), so a solve finds every plan table in place.
func (a *Advisor) Problem(w *workload.Workload, opts Options) (*core.Problem, []workload.Segment, error) {
	return a.problem(context.Background(), w, opts)
}

// problem is Problem under ctx: a cancelled or expired ctx stops the
// statement compile and is returned as the error.
func (a *Advisor) problem(ctx context.Context, w *workload.Workload, opts Options) (_ *core.Problem, _ []workload.Segment, err error) {
	sp := opts.Tracer.Start("advisor.problem")
	defer func() { sp.End(obs.Int("statements", int64(w.Len())), obs.Bool("ok", err == nil)) }()
	if w.Len() == 0 {
		return nil, nil, fmt.Errorf("advisor: empty workload")
	}
	segSize := opts.SegmentSize
	if segSize <= 0 {
		segSize = 1
	}
	segs := w.Segments(segSize)
	memo := opts.Memo
	if memo == nil {
		memo = NewMemo(0)
	}
	world, err := a.currentWorld()
	if err != nil {
		return nil, nil, err
	}
	model := &whatIfModel{table: world.table, phys: world.phys, segs: segs, memo: memo}
	configs := a.space.Configs
	if configs == nil {
		var err error
		configs, err = core.EnumerateConfigs(len(a.space.Structures), model.Size, opts.SpaceBound)
		if err != nil {
			return nil, nil, err
		}
	}
	// Rows are dense over the list the solvers ask for — core's usable
	// list, which filters explicit candidates by the space bound.
	pinned := configs
	if a.space.Configs != nil && opts.SpaceBound > 0 {
		pinned = slices.DeleteFunc(slices.Clone(configs), func(c core.Config) bool {
			return !(model.Size(c) <= opts.SpaceBound)
		})
	}
	model.attach(pinned)
	if err := model.validate(ctx, core.Workers(opts.Parallelism)); err != nil {
		return nil, nil, err
	}
	cache := opts.Cache
	if cache == nil {
		cache = core.NewSolveCache()
	}
	p := &core.Problem{
		Stages:      len(segs),
		Configs:     configs,
		Initial:     opts.Initial,
		Final:       opts.Final,
		SpaceBound:  opts.SpaceBound,
		K:           opts.K,
		Policy:      opts.Policy,
		Model:       model,
		Parallelism: opts.Parallelism,
		Cache:       cache,
		Metrics:     &core.Metrics{},
		Tracer:      opts.Tracer,
	}
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	return p, segs, nil
}

// Recommend solves the constrained dynamic design problem for the
// workload and packages the result. It is RecommendContext under
// context.Background().
func (a *Advisor) Recommend(w *workload.Workload, opts Options) (*Recommendation, error) {
	return a.RecommendContext(context.Background(), w, opts)
}

// RecommendContext is Recommend with cooperative cancellation: the
// solve stops promptly when ctx is cancelled or its deadline expires.
// When the options ask for robustness (Timeout, MaxWhatIfCalls, or
// Fallback), the solve runs under the resilient supervisor and the
// recommendation records which ladder rung answered.
//
// On failure the returned recommendation is non-nil whenever a problem
// was built: it carries the problem, the costing instrumentation, and
// any rung reports gathered before the failure (its Solution is nil),
// so an interrupted run can still render partial diagnostics.
func (a *Advisor) RecommendContext(ctx context.Context, w *workload.Workload, opts Options) (_ *Recommendation, err error) {
	outer := opts.Tracer.Start("advisor.recommend")
	defer func() {
		outer.End(obs.String("table", a.space.Table), obs.Int("k", int64(opts.K)),
			obs.Bool("ok", err == nil))
	}()
	p, segs, err := a.problem(ctx, w, opts)
	if err != nil {
		return nil, err
	}
	return a.solve(ctx, p, segs, w, opts)
}

// solve runs p's solve and packages the answer: the one place a
// Recommendation is assembled. segs and w annotate it; opts picks the
// strategy (default k-aware) and the plain or supervised path.
func (a *Advisor) solve(ctx context.Context, p *core.Problem, segs []workload.Segment, w *workload.Workload, opts Options) (*Recommendation, error) {
	strategy := opts.Strategy
	if strategy == "" {
		strategy = core.StrategyKAware
	}
	rec := &Recommendation{
		Table:          a.space.Table,
		StructureNames: a.space.StructureNames(),
		Structures:     a.space.Structures,
		Segments:       segs,
		Workload:       w,
		Problem:        p,
		Strategy:       strategy,
		opts:           opts,
	}
	start := time.Now()
	sol, err := a.solveProblem(ctx, p, strategy, opts, rec)
	rec.Solution, rec.Elapsed = sol, time.Since(start)
	if sp, ok := p.Model.(statsProvider); ok {
		rec.Stats = sp.costStats()
	}
	rec.Ledger = p.Metrics.Snapshot()
	return rec, err
}

// solveProblem runs the plain or supervised solve path per the options,
// annotating rec with rung diagnostics on the supervised path. The
// solution is nil whenever the error is not.
func (a *Advisor) solveProblem(ctx context.Context, p *core.Problem, strategy core.Strategy, opts Options, rec *Recommendation) (*core.Solution, error) {
	if opts.resilient() {
		ladder := []core.Strategy{strategy}
		if opts.Fallback {
			// AutoLadder prepends the partitioned solver when the
			// candidate span is above the exact hypercube ceiling — the
			// regime where the primary would silently degrade to the
			// dense scan (see core.ErrLatticeTooLarge).
			ladder = core.AutoLadder(p, strategy)
		}
		ropts := core.ResilientOptions{
			Ladder:         ladder,
			RungTimeout:    opts.Timeout,
			MaxWhatIfCalls: opts.MaxWhatIfCalls,
		}
		if opts.Fallback {
			ropts.LastKnownGood = opts.LastKnownGood
		}
		res, err := core.SolveResilient(ctx, p, ropts)
		if res != nil {
			rec.RungReports = res.Reports
			rec.Rung = res.Rung
			rec.Degraded = res.Degraded
		}
		if err != nil {
			return nil, err
		}
		return res.Solution, nil
	}
	sol, err := core.Solve(ctx, p, strategy)
	if ferr := takeModelErr(p.Model); ferr != nil && err == nil {
		sol, err = nil, ferr
	}
	if err != nil {
		return nil, err
	}
	rec.Rung = strategy
	return sol, nil
}

// takeModelErr drains the model's recorded costing failure when it is
// fallible.
func takeModelErr(m core.CostModel) error {
	if fm, ok := m.(core.FallibleModel); ok {
		return fm.TakeErr()
	}
	return nil
}

// RecommendStatic recommends the best single static design for the whole
// workload — the classical advisor baseline, i.e. the constrained
// problem with k = 0 under FreeEndpoints.
func (a *Advisor) RecommendStatic(w *workload.Workload, opts Options) (*Recommendation, error) {
	opts.K = 0
	opts.Policy = core.FreeEndpoints
	opts.Strategy = core.StrategyKAware
	return a.Recommend(w, opts)
}
