package core

import (
	"context"
	"math"
	"reflect"
	"sync"
)

// SolveCache memoizes the dense cost tables across solves that share a
// cost model: the hybrid's unconstrained seed plus its constrained run,
// a SweepK after the Solve whose layers it exposes, and the explain
// audit's oracle-solve-then-replay of each perturbed problem. Problems
// do not cache by default — attach one explicitly (the advisor does)
// and share it by copying the Problem, the same way Metrics is shared.
//
// The cache retains the few most recent table sets (maxCacheEntries,
// MRU-evicted), each keyed by the model identity, stage count,
// endpoints, and candidate list. Multiple live entries are what lets a
// partitioned solve keep one table set per component sub-lattice, so a
// window-to-window re-solve reuses the components the workload did not
// touch. Tables containing non-finite cells (a FallibleModel reporting
// a fault as +Inf) are returned to the requesting solve but never
// retained, so a healthy retry after a fault cannot observe poisoned
// cells. All methods are safe for concurrent use; concurrent builds of
// the same family serialize on the cache so the model is evaluated
// once.
type SolveCache struct {
	mu      sync.Mutex
	entries []*cacheEntry // most recently used first
}

// maxCacheEntries bounds the retained table sets: enough for a full
// solve's tables plus the component tables of a partitioned solve of
// typical width, small enough that stale families age out quickly.
const maxCacheEntries = 8

type cacheEntry struct {
	model CostModel
	// version and versioned record the model's ModelVersion at build
	// time when it implements VersionedModel; a later solve whose model
	// reports a different version never reuses the entry.
	version   uint64
	versioned bool
	stages    int
	initial   Config
	final     *Config
	configs   []Config
	m         *matrices
}

// NewSolveCache returns an empty cache ready to attach to a Problem.
func NewSolveCache() *SolveCache { return &SolveCache{} }

// VersionedModel is an optional CostModel capability for models whose
// outputs can change over a long lifetime — refreshed statistics,
// mutated histograms, a re-analyzed table. ModelVersion must return a
// fingerprint of everything EXEC, TRANS, and SIZE depend on (statistics
// epoch, physical descriptions, the workload segments behind each
// stage): equal versions mean the cost functions are extensionally
// equal. The SolveCache uses it two ways: a cached entry whose model
// reports a new version is invalidated instead of replaying tables from
// a dead world, and two distinct model instances of the same dynamic
// type reporting equal versions may share tables — the warm start a
// long-running advisor gets when it re-solves an unchanged window.
type VersionedModel interface {
	ModelVersion() uint64
}

// modelVersion returns the model's version fingerprint when it exposes
// one.
func modelVersion(m CostModel) (uint64, bool) {
	if vm, ok := capability[VersionedModel](m); ok {
		return vm.ModelVersion(), true
	}
	return 0, false
}

// sameWorld reports whether the entry's tables describe the same cost
// world as the problem's model: the same instance at an unchanged
// version, or — for versioned models only — another instance of the
// same dynamic type whose fingerprint matches.
func (e *cacheEntry) sameWorld(p *Problem) bool {
	ver, versioned := modelVersion(p.Model)
	if e.model == p.Model {
		return !versioned || (e.versioned && e.version == ver)
	}
	return versioned && e.versioned && e.version == ver &&
		reflect.TypeOf(e.model) == reflect.TypeOf(p.Model)
}

// comparableModel guards the interface comparisons the cache key needs:
// a model of a non-comparable dynamic type (all the repo's models are
// pointers, hence comparable) simply disables caching rather than
// risking a comparison panic.
func comparableModel(m CostModel) bool {
	return m != nil && reflect.TypeOf(m).Comparable()
}

func (e *cacheEntry) matches(p *Problem, configs []Config) bool {
	if e == nil || !e.sameWorld(p) || e.stages != p.Stages || e.initial != p.Initial {
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
// upgrading with the all-pairs TRANS rows) on miss.
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
		c.touch(i)
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
	// Capture the model version before evaluating it: if the world
	// changes mid-build, the recorded (pre-build) version differs from
	// the next solve's and the entry is conservatively rebuilt.
	ver, versioned := modelVersion(p.Model)
	m, err := p.buildMatrices(ctx, configs, needTrans)
	if err != nil {
		return nil, err
	}
	if m.finite() {
		var final *Config
		if p.Final != nil {
			f := *p.Final
			final = &f
		}
		c.entries = append([]*cacheEntry{{
			model: p.Model, version: ver, versioned: versioned,
			stages: p.Stages, initial: p.Initial,
			final: final, configs: configs, m: m,
		}}, c.entries...)
		if len(c.entries) > maxCacheEntries {
			c.entries = c.entries[:maxCacheEntries]
		}
	}
	return m, nil
}

// touch moves entry i to the front of the MRU order.
func (c *SolveCache) touch(i int) {
	if i == 0 {
		return
	}
	e := c.entries[i]
	copy(c.entries[1:i+1], c.entries[:i])
	c.entries[0] = e
}

// peek returns a stable view of the cached tables when they were built
// against this problem's model and stage count, and nil otherwise. The
// shallow copy decouples the caller from a concurrent trans-row upgrade;
// the row slices themselves are immutable once published. Endpoints and
// candidate filtering are deliberately not part of the check: the view
// is consumed through per-Config index lookups of verbatim model
// outputs, which are correct for any endpoints.
func (c *SolveCache) peek(p *Problem) *matrices {
	if c == nil || !comparableModel(p.Model) {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries {
		if !e.sameWorld(p) || e.stages != p.Stages {
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

// finite reports whether every built cell is finite — the retention
// criterion that keeps faulted evaluations out of the cache.
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
