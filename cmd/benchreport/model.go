package main

import (
	"sync"

	"dyndesign/internal/core"
)

// syntheticModel is a deterministic phase-structured cost model in the
// shape of the paper's workloads: the stage sequence is divided into
// phases, each phase prefers one index, queries are much cheaper under
// the preferred index, and transitions charge per structure built or
// dropped. The structure matters: on i.i.d.-random costs the ranking
// optimizer degenerates to its small-k worst case (budget exhaustion),
// whereas phase-structured costs keep every strategy on its typical
// path — which is what a regression gate should time.
//
// The model memoizes evaluations behind a mutex and counts calls and
// memo hits, standing in for the advisor's what-if cache: calls map to
// what-if optimizer invocations, hits to cache hits. It is safe for
// concurrent use, as CostModel requires.
type syntheticModel struct {
	n, m    int // stages, candidate configurations
	structs int // underlying index structures
	phases  int

	mu    sync.Mutex
	exec  map[cellKey]float64
	calls int64
	hits  int64
}

type cellKey struct {
	stage int
	c     core.Config
}

const benchSeed = 0x9e3779b97f4a7c15

// splitmix64 is the standard 64-bit mixer; deterministic noise source.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func newSyntheticModel(n, m, phases int) *syntheticModel {
	return &syntheticModel{
		n: n, m: m, structs: m - 1,
		phases: phases,
		exec:   make(map[cellKey]float64, n*m),
	}
}

// newLatticeModel builds the model over the full 2^structs configuration
// lattice — the shape that exercises the hypercube kernel cells (the
// single-index grid keeps candidate sets narrow enough that the dense
// kernel always wins the auto comparison).
func newLatticeModel(n, structs, phases int) *syntheticModel {
	m := 1 << uint(structs)
	return &syntheticModel{
		n: n, m: m, structs: structs,
		phases: phases,
		exec:   make(map[cellKey]float64, n*m),
	}
}

// configs returns the candidate list: the empty design plus one
// single-index configuration per structure, the paper's design space
// shape.
func (sm *syntheticModel) configs() []core.Config {
	out := make([]core.Config, 0, sm.m)
	out = append(out, core.Config(0))
	for s := 0; s < sm.m-1; s++ {
		out = append(out, core.ConfigOf(s))
	}
	return out
}

// latticeConfigs returns every subset of the structures — the 2^structs
// candidate list of the hypercube cells.
func (sm *syntheticModel) latticeConfigs() []core.Config {
	out := make([]core.Config, 1<<uint(sm.structs))
	for i := range out {
		out[i] = core.Config(i)
	}
	return out
}

// preferred returns the index structure the stage's phase favors.
func (sm *syntheticModel) preferred(stage int) int {
	phase := stage * sm.phases / sm.n
	return int(splitmix64(benchSeed^uint64(phase)) % uint64(sm.structs))
}

// Exec returns a low cost under the phase's preferred index and a high
// scan-like cost otherwise, with deterministic per-(stage, config)
// noise so no two cells are ever exactly tied.
func (sm *syntheticModel) Exec(stage int, c core.Config) float64 {
	key := cellKey{stage, c}
	sm.mu.Lock()
	sm.calls++
	if v, ok := sm.exec[key]; ok {
		sm.hits++
		sm.mu.Unlock()
		return v
	}
	sm.mu.Unlock()

	base := 100.0
	if c.Has(sm.preferred(stage)) {
		base = 10.0
	}
	noise := float64(splitmix64(benchSeed^uint64(stage)<<20^uint64(c))%1000) / 500.0
	v := base + noise

	sm.mu.Lock()
	sm.exec[key] = v
	sm.mu.Unlock()
	return v
}

// Trans charges a build/drop cost per structure changed; Trans(c, c)
// is 0 as CostModel requires.
func (sm *syntheticModel) Trans(from, to core.Config) float64 {
	added, removed := from.Diff(to)
	return 40*float64(len(added)) + 5*float64(len(removed))
}

// TransParts implements core.AdditiveTransModel: Trans above is exactly
// 40 per structure built plus 5 per structure dropped, so the exact
// solvers may use the hypercube kernel when it wins the cost comparison
// (the single-index grid cells never do; the lattice cells always do).
func (sm *syntheticModel) TransParts() (add, drop []float64) {
	add = make([]float64, sm.structs)
	drop = make([]float64, sm.structs)
	for s := range add {
		add[s] = 40
		drop[s] = 5
	}
	return add, drop
}

// Size counts structures; the grid leaves SpaceBound unset, so this
// only has to be consistent.
func (sm *syntheticModel) Size(c core.Config) float64 { return float64(c.Count()) }

// stats returns total Exec calls and memo hits so far.
func (sm *syntheticModel) stats() (calls, hits int64) {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	return sm.calls, sm.hits
}

// groupedBenchModel is the partitioned-solver grid's cost model: EXEC
// decomposes per structure (a phase-preferred index term plus
// per-structure maintenance and noise, each depending only on that
// structure's bit), so the interaction graph factors into one
// component per structure and the partitioned solve must recombine
// with a provably zero gap. The non-factorable variant declares one
// clique spanning every structure — same costs, but the solver cannot
// split the lattice and (under ForceBeam) must run the anytime beam.
// Unlike syntheticModel, the tie-breaking noise is drawn per
// (stage, structure, bit) rather than per full configuration: whole-
// config noise would couple every structure and silently break the
// additive-EXEC contract ExecInteractions promises.
type groupedBenchModel struct {
	n, structs int
	phases     int
	cliques    []core.Config

	mu    sync.Mutex
	exec  map[cellKey]float64
	calls int64
	hits  int64
}

func newGroupedBenchModel(n, structs, phases int, factorable bool) *groupedBenchModel {
	gm := &groupedBenchModel{
		n: n, structs: structs, phases: phases,
		exec: make(map[cellKey]float64, n*(1<<uint(structs))),
	}
	if factorable {
		for s := 0; s < structs; s++ {
			gm.cliques = append(gm.cliques, core.ConfigOf(s))
		}
	} else {
		var all core.Config
		for s := 0; s < structs; s++ {
			all = all.With(s)
		}
		gm.cliques = []core.Config{all}
	}
	return gm
}

// ExecInteractions implements core.InteractionModel.
func (gm *groupedBenchModel) ExecInteractions() []core.Config { return gm.cliques }

func (gm *groupedBenchModel) latticeConfigs() []core.Config {
	out := make([]core.Config, 1<<uint(gm.structs))
	for i := range out {
		out[i] = core.Config(i)
	}
	return out
}

func (gm *groupedBenchModel) preferred(stage int) int {
	phase := stage * gm.phases / gm.n
	return int(splitmix64(benchSeed^uint64(phase)) % uint64(gm.structs))
}

// Exec sums one term per structure: scan-or-seek for the phase's
// preferred index, maintenance for other held indexes, plus
// per-structure noise.
func (gm *groupedBenchModel) Exec(stage int, c core.Config) float64 {
	key := cellKey{stage, c}
	gm.mu.Lock()
	gm.calls++
	if v, ok := gm.exec[key]; ok {
		gm.hits++
		gm.mu.Unlock()
		return v
	}
	gm.mu.Unlock()

	pref := gm.preferred(stage)
	v := 0.0
	for s := 0; s < gm.structs; s++ {
		has := c.Has(s)
		var t float64
		switch {
		case s == pref && has:
			t = 10
		case s == pref:
			t = 100
		case has:
			t = 2
		}
		bit := uint64(0)
		if has {
			bit = 1
		}
		t += float64(splitmix64(benchSeed^uint64(stage)<<20^uint64(s)<<1^bit)%1000) / 500.0
		v += t
	}

	gm.mu.Lock()
	gm.exec[key] = v
	gm.mu.Unlock()
	return v
}

func (gm *groupedBenchModel) Trans(from, to core.Config) float64 {
	added, removed := from.Diff(to)
	return 40*float64(len(added)) + 5*float64(len(removed))
}

func (gm *groupedBenchModel) TransParts() (add, drop []float64) {
	add = make([]float64, gm.structs)
	drop = make([]float64, gm.structs)
	for s := range add {
		add[s] = 40
		drop[s] = 5
	}
	return add, drop
}

func (gm *groupedBenchModel) Size(c core.Config) float64 { return float64(c.Count()) }

func (gm *groupedBenchModel) stats() (calls, hits int64) {
	gm.mu.Lock()
	defer gm.mu.Unlock()
	return gm.calls, gm.hits
}
