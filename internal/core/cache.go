package core

import (
	"context"
	"math"
	"reflect"
	"slices"
	"sync"
)

// SolveCache carries solver state from one solve to the next. It holds
// three things:
//
//   - The indexes of the last few candidate lists (listIndex): a problem
//     over a list equal to one the cache indexed — the next window of a
//     sliding advisor — validates, replays and binds its kernel through
//     the kept index instead of building one (DESIGN.md §12).
//   - The dense cost tables of the last few problems: merging's
//     unconstrained seed plus a ladder's exact rung, a SweepK after the
//     Solve whose layers it exposes, and the explain audit's
//     oracle-solve-then-replay of each perturbed problem share one
//     problem's tables. An entry is keyed by the model identity, stage
//     count, endpoints and candidate list, so it serves only the solves
//     of one problem: a model is immutable once its problem is
//     assembled, and a different model, even one that would compute the
//     same values, builds its own.
//   - The last hypercube seed pass (seedState), from the cache's second
//     pass on: each stage's parent row and some of its cost rows, with
//     the EXEC rows and prices that produced them. This part does carry
//     across problems. A problem whose window is the
//     retained one minus some head stages plus some tail stages, over
//     the same candidate list and prices, recomputes its seed pass only
//     until a stage's row bit-matches the retained row there, and
//     reuses the retained rows after it (DESIGN.md §12). One window is
//     retained — every parent row and one cost row in costEvery, about
//     stages × configurations × 6 bytes — and every kept seed pass
//     replaces it, so solves of unrelated windows on one cache (the
//     explain audit's resamples, a partitioned solve's components) cost
//     the next slide one full pass.
//
// Problems do not cache by default — attach one explicitly (the advisor
// does) and share it by copying the Problem, the same way Metrics is
// shared. Multiple live table entries are what lets a partitioned solve
// keep one table set per component sub-lattice.
//
// A built table set is kept unscanned: most sets are never read again
// by a solver — a sliding window builds a new model, hence a new
// problem, for every slide — and scanning every cell for faults is then
// a whole-window pass bought for nothing. The first solver reuse (a
// tables hit) scans the set once; a set holding a non-finite cell (a
// FallibleModel reporting a fault as +Inf) is dropped and rebuilt there,
// as a miss, so a healthy retry after a fault never solves over
// poisoned cells. Replays inside the problem (SequenceCostSplit, hence
// NewSolution, CheckSolution and the explain attribution) read the set
// through peek unscanned and ask the model for any non-finite cell they
// meet, which is the model path's answer bit for bit.
//
// The table half stays for those replays: a 500-stage replay over 7
// configurations (advisord's shape) takes 4–6 µs through the tables
// and 25–35 µs through the advisor's what-if model, whose every cell is
// a row-store lookup under a lock (2-CPU host). All methods are safe
// for concurrent use; concurrent builds of the same family serialize on
// the cache so the model is evaluated once.
type SolveCache struct {
	// listMu guards lists alone: a table build, which holds mu, indexes
	// its list.
	listMu  sync.Mutex
	lists   []*listIndex // most recently used first
	mu      sync.Mutex
	entries []*cacheEntry // most recently used first
	seed    *seedState    // the last kept seed pass
	seeded  bool          // a hypercube seed pass has run on the cache
}

// maxCacheEntries bounds the retained table sets: enough for a full
// solve's tables plus the component tables of a partitioned solve of
// typical width, small enough that stale families age out quickly.
const maxCacheEntries = 8

type cacheEntry struct {
	model   CostModel
	stages  int
	initial Config
	final   *Config
	configs []Config
	m       *matrices
	// scanned is set once every cell of m was found finite, by the first
	// solver reuse; a build keeps its set unscanned.
	scanned bool
}

// NewSolveCache returns an empty cache ready to attach to a Problem.
func NewSolveCache() *SolveCache { return &SolveCache{} }

// comparableModel guards the interface comparisons the cache key needs:
// a model of a non-comparable dynamic type (all the repo's models are
// pointers, hence comparable) simply disables caching rather than
// risking a comparison panic.
func comparableModel(m CostModel) bool {
	return m != nil && reflect.TypeOf(m).Comparable()
}

func (e *cacheEntry) matches(p *Problem, configs []Config) bool {
	if e == nil || e.model != p.Model || e.stages != p.Stages || e.initial != p.Initial {
		return false
	}
	if (e.final == nil) != (p.Final == nil) {
		return false
	}
	if e.final != nil && *e.final != *p.Final {
		return false
	}
	if len(e.configs) != len(configs) {
		return false
	}
	for i, c := range e.configs {
		if c != configs[i] {
			return false
		}
	}
	return true
}

// tables returns the cached tables for the problem, building (or
// upgrading with the all-pairs TRANS rows) on miss. A hit on a set not
// yet scanned scans it first (see SolveCache).
func (c *SolveCache) tables(ctx context.Context, p *Problem, configs []Config, needTrans bool) (*matrices, error) {
	if !comparableModel(p.Model) {
		return p.buildMatrices(ctx, configs, needTrans)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, e := range c.entries {
		if !e.matches(p, configs) {
			continue
		}
		if !e.scanned {
			if !e.m.finite() {
				// A faulted build is rebuilt by this solve, as a miss.
				c.entries = slices.Delete(c.entries, i, i+1)
				break
			}
			e.scanned = true
		}
		toFront(c.entries, i)
		m := e.m
		if !needTrans || m.trans != nil {
			p.Metrics.noteMatrixReuse()
			return m, nil
		}
		// Upgrade: the entry was built for the hypercube kernel; a dense
		// consumer additionally needs the all-pairs TRANS rows. Readers
		// that took the entry earlier never touch the trans field (they
		// asked for needTrans=false), so attaching it under the lock is
		// safe; SequenceCostSplit readers go through peek's copy.
		trans, err := p.buildTransRows(ctx, configs)
		if err != nil {
			return nil, err
		}
		if rowsFinite(trans) {
			m.trans = trans
			p.Metrics.noteMatrixReuse()
			return m, nil
		}
		faulted := *m
		faulted.trans = trans
		return &faulted, nil
	}
	m, err := p.buildMatrices(ctx, configs, needTrans)
	if err != nil {
		return nil, err
	}
	var final *Config
	if p.Final != nil {
		f := *p.Final
		final = &f
	}
	c.entries = append([]*cacheEntry{{
		model: p.Model, stages: p.Stages, initial: p.Initial,
		final: final, configs: configs, m: m,
	}}, c.entries...)
	if len(c.entries) > maxCacheEntries {
		c.entries = c.entries[:maxCacheEntries]
	}
	return m, nil
}

// retained returns the last kept seed pass, nil on a nil cache or
// before the first.
func (c *SolveCache) retained() *seedState {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seed
}

// reseeding records a hypercube seed pass on the cache and reports
// whether one ran on it before: only a cache's second and later passes
// keep their rows, so a cache that serves one pass — a per-problem
// default behind a single solve, a cold solve on a fresh cache — retains
// nothing.
func (c *SolveCache) reseeding() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	again := c.seeded
	c.seeded = true
	return again
}

// retain keeps a finished seed pass for the next one to read.
func (c *SolveCache) retain(st *seedState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seed = st
}

// toFront moves element i of an MRU list to the front.
func toFront[T any](list []T, i int) {
	if i == 0 {
		return
	}
	e := list[i]
	copy(list[1:i+1], list[:i])
	list[0] = e
}

// peek returns a stable view of the cached tables when they were built
// against this problem's model and stage count, and nil otherwise. The
// view may be unscanned: its readers ask the model for any non-finite
// cell. The shallow copy decouples the caller from a concurrent
// trans-row upgrade; the row slices themselves are immutable once
// published. Endpoints and candidate filtering are deliberately not part
// of the check: the view is consumed through per-Config index lookups of
// verbatim model outputs, which are correct for any endpoints.
func (c *SolveCache) peek(p *Problem) *matrices {
	if c == nil || !comparableModel(p.Model) {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries {
		if e.model != p.Model || e.stages != p.Stages {
			continue
		}
		p.Metrics.noteMatrixReuse()
		view := *e.m
		return &view
	}
	return nil
}

func finiteCell(v float64) bool {
	return !math.IsInf(v, 0) && !math.IsNaN(v)
}

func rowsFinite(rows [][]float64) bool {
	for _, row := range rows {
		for _, v := range row {
			if !finiteCell(v) {
				return false
			}
		}
	}
	return true
}

// finite reports whether every built cell is finite — the check a kept
// set passes on its first solver reuse, so faulted evaluations never
// serve a second solve.
func (m *matrices) finite() bool {
	if !rowsFinite(m.exec) || !rowsFinite(m.trans) {
		return false
	}
	for _, v := range m.initTrans {
		if !finiteCell(v) {
			return false
		}
	}
	for _, v := range m.finalTrans {
		if !finiteCell(v) {
			return false
		}
	}
	return true
}
