package core

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"dyndesign/internal/obs"
)

// layeredDP is the state of one k-aware layered sequence-graph run: the
// final-stage cost table over (configuration, layer) plus the parent
// links needed to backtrack any endpoint. SolveKAware consumes only the
// global optimum; SweepK reads every layer, which is why the run is kept
// as a value instead of being discarded inside the solver.
type layeredDP struct {
	m      *matrices // m.configs is the usable candidate list the run covers
	layers int
	// cost[idx(c,l)] is the cheapest way to execute all stages with the
	// last stage under configs[c] and exactly l changes counted.
	cost []float64
	// parents[i][idx(c,l)] is the configuration index used at stage i-1;
	// the predecessor layer is l when the configuration is unchanged and
	// l-1 otherwise. All stage tables share one backing array.
	parents [][]int32
	stages  int
}

// idx is layer-major so each layer's cost row is one contiguous slice —
// exactly the shape the transition kernels relax and the layer-parallel
// sweep partitions.
func (d *layeredDP) idx(c, l int) int { return l*len(d.m.configs) + c }

// runLayeredDP executes the paper's k-aware sequence-graph relaxation
// (§3) over layers 0..maxK: layer l holds the paths that have made
// exactly l design changes so far. No sequence counts more than
// maxChanges of them, so a larger bound buys no further layer — the
// tables are sized by the stage count, never by the bound alone. Staying
// in a configuration keeps the layer; switching moves one layer down
// through the kernel's move relaxation — O(layers·m²) per stage dense,
// O(layers·m'·2^m') hypercube. Layers relax independently (each reads
// the frozen previous stage), so with enough configurations a stage
// crew shares the layers out; every layer is owned by exactly one
// worker, which keeps the output bit-identical to the serial sweep. The
// stage loop checks the context between stages, so cancellation latency
// is bounded by one relaxation.
func (p *Problem) runLayeredDP(ctx context.Context, m *matrices, kern transRelaxer, maxK int) (*layeredDP, error) {
	configs := m.configs
	nc := len(configs)
	layers := min(maxK, p.maxChanges()) + 1
	d := &layeredDP{m: m, layers: layers, stages: p.Stages}
	inf := math.Inf(1)

	cost := make([]float64, nc*layers)
	for i := range cost {
		cost[i] = inf
	}
	// live[l] tracks whether layer l holds any reachable state, letting
	// the sweep skip stay reads and whole move relaxations into dead
	// layers (early stages have only the shallow layers populated).
	live := make([]bool, layers)
	for j, c := range configs {
		startLayer := 0
		if p.Policy == CountAll && c != p.Initial {
			startLayer = 1
		}
		if startLayer >= layers {
			continue // K = 0 under CountAll: only the initial design is usable
		}
		v := m.initTrans[j] + m.exec[0][j]
		cost[startLayer*nc+j] = v
		if !math.IsInf(v, 1) {
			live[startLayer] = true
		}
	}

	// One backing array serves every stage's parent table, and the move
	// and lattice scratch buffers are reused across all stages (and all
	// SweepK layers): the per-stage allocations the sweep used to make
	// are gone. Stage i reads costs[(i-1)&1] and lives[(i-1)&1] and
	// writes costs[i&1] and lives[i&1].
	d.parents = make([][]int32, p.Stages)
	if p.Stages > 1 {
		backing := make([]int32, (p.Stages-1)*nc*layers)
		for i := 1; i < p.Stages; i++ {
			d.parents[i] = backing[(i-1)*nc*layers : i*nc*layers : i*nc*layers]
		}
	}
	costs := [2][]float64{cost, make([]float64, nc*layers)}
	lives := [2][]bool{live, make([]bool, layers)}
	move := make([]float64, nc*layers)
	moveFrom := make([]int32, nc*layers)
	scratch := make([]*latticeScratch, layers) // one per layer: the sweep below fans out by layer
	for l := 1; l < layers; l++ {
		scratch[l] = kern.newScratch()
	}

	// relax is layer l of stage i. It reads layers l-1 and l of stage
	// i-1 and writes layer l of stage i only.
	relax := func(i, l int) {
		cost, next := costs[(i-1)&1], costs[i&1]
		live := lives[(i-1)&1]
		base := l * nc
		execRow := m.exec[i]
		outRow := next[base : base+nc]
		parRow := d.parents[i][base : base+nc]
		stayRow := cost[base : base+nc]
		var moveRow []float64
		var moveSrc []int32
		if l > 0 && live[l-1] {
			moveRow = move[base : base+nc]
			moveSrc = moveFrom[base : base+nc]
			kern.relaxMove(cost[(l-1)*nc:base], moveRow, moveSrc, scratch[l])
		}
		anyLive := false
		for t := 0; t < nc; t++ {
			// Stay in the same configuration (same layer) vs switch in
			// from the layer above; the stay state wins exact ties.
			v := inf
			from := int32(-1)
			if live[l] {
				if sv := stayRow[t]; sv < v {
					v = sv
					from = int32(t)
				}
			}
			if moveRow != nil {
				if mv := moveRow[t]; mv < v {
					v = mv
					from = moveSrc[t]
				}
			}
			if math.IsInf(v, 1) {
				outRow[t] = inf
				parRow[t] = -1
				continue
			}
			nv := v + execRow[t]
			if math.IsInf(nv, 1) {
				outRow[t] = inf
				parRow[t] = -1
				continue
			}
			outRow[t] = nv
			parRow[t] = from
			anyLive = true
		}
		lives[i&1][l] = anyLive
	}

	// Layers relax independently within a stage, so with enough
	// configurations a crew of workers shares them, layer l to worker
	// l mod n. A worker starts stage i once every other has finished
	// stage i-1: then the layers it reads are written and the cells it
	// overwrites are read.
	n := 1
	if layers >= 2 && nc >= parallelSweepMinConfigs {
		n = crewSize(p.Parallelism, layers)
	}
	var crew stageCrew
	done := make([]atomic.Int64, n)
	step := func(w, i int) bool {
		for v := range done {
			if v != w && !crew.await(&done[v], i-1) {
				return false
			}
		}
		for l := w; l < layers; l += n {
			relax(i, l)
		}
		done[w].Store(int64(i))
		return true
	}
	err := crew.run(ctx, 1, p.Stages, n, func(w, i int) bool {
		if w > 0 {
			return step(w, i)
		}
		sweep := p.Tracer.Start(SpanKAwareSweep)
		ok := step(w, i)
		sweep.End(obs.Int("stage", int64(i)), obs.Int("layers", int64(layers)),
			obs.Int("configs", int64(nc)), obs.String("kernel", kern.name()))
		return ok
	})
	if err != nil {
		return nil, err
	}
	d.cost = costs[(p.Stages-1)&1]
	return d, nil
}

// best finds the cheapest endpoint over layers [0, maxLayer], final
// transition included. ok is false when no endpoint within the layer
// bound is reachable.
func (d *layeredDP) best(maxLayer int) (cfg, layer int, ok bool) {
	if maxLayer >= d.layers {
		maxLayer = d.layers - 1
	}
	bestCost := math.Inf(1)
	cfg, layer = -1, -1
	for j := 0; j < len(d.m.configs); j++ {
		for l := 0; l <= maxLayer; l++ {
			v := d.cost[d.idx(j, l)]
			if math.IsInf(v, 1) {
				continue
			}
			if d.m.finalTrans != nil {
				v += d.m.finalTrans[j]
			}
			if v < bestCost {
				bestCost = v
				cfg, layer = j, l
			}
		}
	}
	return cfg, layer, cfg >= 0
}

// backtrack reconstructs the design sequence ending at (cfg, layer).
func (d *layeredDP) backtrack(cfg, layer int) []Config {
	designs := make([]Config, d.stages)
	c, l := cfg, layer
	for i := d.stages - 1; i >= 0; i-- {
		designs[i] = d.m.configs[c]
		if i == 0 {
			break
		}
		prev := int(d.parents[i][d.idx(c, l)])
		if prev != c {
			l--
		}
		c = prev
	}
	return designs
}

// curve reads the run at every change bound in [0, maxK]: element k is
// the optimal design with at most k changes, nil while no design within
// the bound exists. Each design is re-priced from the model
// (epsilon-free), and a bound keeps the previous bound's design unless
// the DP offers a strictly cheaper one — feasibility nests in k, so the
// curve never goes up.
func (d *layeredDP) curve(ctx context.Context, p *Problem, maxK int) ([]*Solution, error) {
	sols := make([]*Solution, maxK+1)
	var prev *Solution
	prevCfg, prevLayer := -1, -1
	for k := 0; k <= maxK; k++ {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		if k >= d.layers {
			sols[k] = prev // every layer is already read: flat from here on
			continue
		}
		cfg, layer, ok := d.best(k)
		if !ok {
			continue
		}
		sol := prev
		if cfg != prevCfg || layer != prevLayer {
			sol = p.NewSolution(d.backtrack(cfg, layer))
		}
		if prev != nil && prev.Cost <= sol.Cost {
			sol = prev
		} else {
			prevCfg, prevLayer = cfg, layer
		}
		prev = sol
		sols[k] = sol
	}
	return sols, nil
}

// layeredCurve is one layered relaxation read at every change bound in
// [0, maxK] (see curve): what SweepK reports and what the partitioned
// solver recombines per component. maxK == Unconstrained sweeps to the
// unconstrained optimum's change count, learnt from a seed pass over the
// same tables and kernel.
func (p *Problem) layeredCurve(ctx context.Context, maxK int) ([]*Solution, error) {
	m, kern, err := p.solveInputs(ctx)
	if err != nil {
		return nil, err
	}
	if maxK == Unconstrained {
		seed, err := p.unconstrainedOn(ctx, m, kern)
		if err != nil {
			return nil, err
		}
		if seed == nil {
			return nil, fmt.Errorf("core: unconstrained problem has no feasible design")
		}
		maxK = CountChanges(p.Initial, seed, p.Policy)
	}
	d, err := p.runLayeredDP(ctx, m, kern, maxK)
	if err != nil {
		return nil, err
	}
	return d.curve(ctx, p, maxK)
}

// SolveKAware finds the optimal change-constrained dynamic physical
// design via the paper's k-aware sequence graph (§3): the sequence graph
// replicated into K+1 layers, where layer l holds the paths that have
// made exactly l design changes so far. The shortest path over the
// layered DAG is the constrained optimum, found in O(K·n·m²) with the
// dense kernel and O(K·n·m'·2^m') with the hypercube kernel over m'
// underlying structures (DESIGN.md §12).
//
// With K == Unconstrained it reduces to SolveUnconstrained.
func SolveKAware(ctx context.Context, p *Problem) (*Solution, error) {
	if p.K == Unconstrained {
		return SolveUnconstrained(ctx, p)
	}
	m, kern, err := p.solveInputs(ctx)
	if err != nil {
		return nil, err
	}
	return p.kAwareOn(ctx, m, kern)
}

// kAwareOn is SolveKAware's layered relaxation over tables and a kernel
// already fetched — the body it shares with the exact path (solveExact),
// which runs it on its seed pass's tables when K binds.
func (p *Problem) kAwareOn(ctx context.Context, m *matrices, kern transRelaxer) (*Solution, error) {
	d, err := p.runLayeredDP(ctx, m, kern, p.K)
	if err != nil {
		return nil, err
	}
	cfg, layer, ok := d.best(p.K)
	if !ok {
		return nil, fmt.Errorf("core: no design with at most %d changes exists", p.K)
	}
	return p.NewSolution(d.backtrack(cfg, layer)), nil
}

// solveExact is the exact production path — the kaware row of the
// strategy table and the partitioned solver's exact hand-overs: the
// constrained optimum, with the change-bounded layers run only when K
// binds. After one solveInputs the unconstrained relaxation runs as a
// seed pass; its optimum is returned when it counts at most K changes
// (it minimises the same perturbed objective over a superset of the
// feasible sequences), and otherwise the layers run on the same tables
// and kernel. The layers relax K moves per stage and the seed one, so
// below K = 2 the seed cannot pay and is skipped. Cost is SolveKAware's
// bit for bit, and so is the design unless the perturbed optimum is not
// unique (DESIGN.md §12). The attributes are for the solve span:
// seed_changes (-1 without a seed design) and layered.
func solveExact(ctx context.Context, p *Problem) (*Solution, []obs.Attr, error) {
	attrs := func(seedChanges int, layered bool) []obs.Attr {
		return []obs.Attr{obs.Int("seed_changes", int64(seedChanges)), obs.Bool("layered", layered)}
	}
	if p.K < 2 {
		sol, err := SolveKAware(ctx, p)
		return sol, attrs(-1, p.K != Unconstrained), err
	}
	m, kern, err := p.solveInputs(ctx)
	if err != nil {
		return nil, nil, err
	}
	seed, err := p.unconstrainedOn(ctx, m, kern)
	if err != nil {
		return nil, nil, err
	}
	seedChanges := -1
	if seed != nil {
		seedChanges = CountChanges(p.Initial, seed, p.Policy)
		if seedChanges <= p.K {
			return p.NewSolution(seed), attrs(seedChanges, false), nil
		}
	}
	sol, err := p.kAwareOn(ctx, m, kern)
	return sol, attrs(seedChanges, true), err
}

// KPoint is one point of the cost-of-constraint curve: the optimal
// sequence cost when at most K design changes are allowed.
type KPoint struct {
	// K is the change bound of this point.
	K int `json:"k"`
	// Feasible is false when no design with at most K changes exists
	// (K = 0 under CountAll with an unusable initial configuration); the
	// other fields are zero then.
	Feasible bool `json:"feasible"`
	// Cost is the optimal sequence cost under the bound, recomputed from
	// the model (epsilon-free, matching Solution.Cost for the same K),
	// with its EXEC/TRANS split; Changes is the optimum's change count,
	// which can be below K when extra allowance buys nothing.
	Cost      float64 `json:"cost"`
	ExecCost  float64 `json:"exec_cost"`
	TransCost float64 `json:"trans_cost"`
	Changes   int     `json:"changes"`
	// Marginal is cost(K-1) - cost(K): what the K-th allowed change
	// bought. Zero at K = 0 and when the previous point is infeasible.
	Marginal float64 `json:"marginal"`
	// Designs is the optimal design sequence, one configuration per
	// stage. Flat stretches of the curve share one slice.
	Designs []Config `json:"-"`
}

// SweepK computes the cost-of-constraint curve cost(k') for k' in
// [0, maxK] with ONE layered DP run — the k-aware relaxation already
// computes every layer up to its bound; the sweep exposes them instead
// of discarding all but the optimum. Each point's cost is recomputed
// from the model over the backtracked design, so the curve is exact (no
// tie-breaking epsilon) and point maxK matches SolveKAware's solution
// cost at K = maxK. The curve is monotone non-increasing in K by
// construction: a design feasible at k' is feasible at k'+1, so each
// point keeps the previous design when the DP offers nothing cheaper.
//
// maxK == Unconstrained sweeps to l, the unconstrained optimum's change
// count: the last point is the unconstrained optimum. The problem's own
// K is ignored.
func SweepK(ctx context.Context, p *Problem, maxK int) ([]KPoint, error) {
	if maxK < 0 && maxK != Unconstrained {
		return nil, fmt.Errorf("core: cannot sweep to negative change bound %d", maxK)
	}
	sols, err := p.layeredCurve(ctx, maxK)
	if err != nil {
		return nil, err
	}
	out := make([]KPoint, len(sols))
	for k, sol := range sols {
		out[k] = KPoint{K: k}
		if sol == nil {
			continue
		}
		out[k] = KPoint{K: k, Feasible: true, Cost: sol.Cost, ExecCost: sol.ExecCost,
			TransCost: sol.TransCost, Changes: sol.Changes, Designs: sol.Designs}
		if k > 0 && out[k-1].Feasible {
			out[k].Marginal = out[k-1].Cost - sol.Cost
		}
	}
	return out, nil
}
