package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"dyndesign/internal/obs"
)

// changeEpsilon is a tie-breaking perturbation added to every
// inter-configuration edge inside the graph solvers: among equal-cost
// design sequences, the one with fewer changes wins. It is orders of
// magnitude below any meaningful page-cost difference and never appears
// in reported costs (solutions recompute their cost from the model).
const changeEpsilon = 1e-9

// matrices precomputes the cost terms a graph solver needs: EXEC per
// (stage, configuration), the endpoint transitions, and — for the dense
// kernel only — TRANS between every configuration pair. Solvers then
// run on dense float64 tables.
type matrices struct {
	configs []Config
	idx     *listIndex // configuration -> row/column index
	// exec[stage][cfg] is the verbatim model EXEC; rows are read-only,
	// they may be the model's own storage (BatchCostModel).
	exec [][]float64
	// trans holds the raw model TRANS values (diagonal 0). Kernels add
	// the changeEpsilon tie-break at use time — fl(raw + ε) is bit for
	// bit the value the table used to bake in — which keeps the cells
	// verbatim model outputs for cost replays. nil when the hypercube
	// kernel made the all-pairs table unnecessary.
	trans      [][]float64
	initTrans  []float64 // TRANS(C0, cfg) + ε/2 (0 at C0)
	finalTrans []float64 // TRANS(cfg, Final) + ε/2; nil when unconstrained
}

// tables returns the solver's cost tables, through the attached
// SolveCache when the problem has one and directly from the model
// otherwise. needTrans asks for the all-pairs TRANS table, which only
// the dense kernel consumes.
func (p *Problem) tables(ctx context.Context, configs []Config, needTrans bool) (*matrices, error) {
	if p.Cache != nil {
		return p.Cache.tables(ctx, p, configs, needTrans)
	}
	return p.buildMatrices(ctx, configs, needTrans)
}

// solveInputs is the preamble every graph solver starts from: the
// problem is validated, its candidate list filtered by the space bound
// (the usable list, m.configs), the transition kernel resolved over that
// list, the cost tables fetched — with the all-pairs TRANS table only
// when the dense kernel was chosen — and the kernel bound to them.
func (p *Problem) solveInputs(ctx context.Context) (*matrices, transRelaxer, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	configs, err := p.usableConfigs()
	if err != nil {
		return nil, nil, err
	}
	ch := resolveKernel(p, configs)
	m, err := p.tables(ctx, configs, ch.needTrans())
	if err != nil {
		return nil, nil, err
	}
	return m, ch.kernel(m), nil
}

// buildMatrices evaluates the cost model into dense tables over the
// given configuration list. The EXEC table (one what-if costing per
// stage × configuration — the advisor's dominant expense) is filled by
// a bounded worker pool, as is the TRANS table; each worker owns whole
// rows, so the result is bit-identical to the serial evaluation. The
// build is the solvers' dominant cancellation point: the pool checks the
// context between rows, and an aborted build returns the cancellation
// cause (or the *PanicError of a panicking model) instead of tables.
//
// With needTrans false (the hypercube kernel), the O(m²) all-pairs
// TRANS evaluation is skipped entirely — the saving that makes wide
// candidate lattices affordable. A StoredRowModel's kept rows skip the
// pool too: only the stages it names as missing get a worker (and a
// matrix.exec_stage span).
func (p *Problem) buildMatrices(ctx context.Context, configs []Config, needTrans bool) (_ *matrices, err error) {
	start := time.Now()
	sp := p.Tracer.Start(SpanMatrixBuild)
	defer func() {
		sp.End(obs.Int("stages", int64(p.Stages)), obs.Int("configs", int64(len(configs))),
			obs.Bool("trans", needTrans), obs.Bool("ok", err == nil))
	}()
	idx, err := p.Cache.index(configs)
	if err != nil {
		return nil, err
	}
	workers := p.workers()
	m := &matrices{configs: configs, idx: idx}
	m.exec = make([][]float64, p.Stages)
	// The enabled check is hoisted out of the row closure: with the
	// tracer off, the per-row cost is one branch on a captured bool
	// instead of span construction, which matters at n rows per build.
	traced := p.Tracer.Enabled()
	// One capability check serves every row: a batch-aware model costs
	// the whole configuration frontier of a stage in one call (the
	// layered DP, ranking sweep, and hypercube kernel all consume this
	// table, so they inherit the batched fill). Batched and scalar
	// evaluation are bit-identical by the BatchCostModel contract.
	bm, batched := p.Model.(BatchCostModel)
	// A model that keeps rows hands the kept ones over in one call; the
	// workers fill the rest. The check is on the model itself, not
	// through capability: a wrapper that meters evaluations (a rung's
	// work budget) must see every row asked for.
	fill, stage := p.Stages, func(k int) int { return k }
	if sm, ok := p.Model.(StoredRowModel); ok {
		missing := sm.StoredRows(configs, m.exec)
		fill, stage = len(missing), func(k int) int { return missing[k] }
	}
	err = ParallelFor(ctx, workers, fill, func(k int) {
		i := stage(k)
		var rowSpan obs.Span
		if traced {
			rowSpan = p.Tracer.Start(SpanMatrixExecStage)
		}
		if batched {
			// The model's slice is the row — possibly its own storage,
			// shared by reference (see BatchCostModel).
			m.exec[i] = bm.BatchExec(i, configs, nil)
		} else {
			row := make([]float64, len(configs))
			for j, c := range configs {
				row[j] = p.Model.Exec(i, c)
			}
			m.exec[i] = row
		}
		if traced {
			rowSpan.End(obs.Int("stage", int64(i)))
		}
	})
	if err != nil {
		return nil, err
	}
	if needTrans {
		m.trans, err = p.buildTransRows(ctx, configs)
		if err != nil {
			return nil, err
		}
	}
	m.initTrans = make([]float64, len(configs))
	for j, c := range configs {
		if c == p.Initial {
			continue
		}
		// Endpoint transitions get half the perturbation so equal-cost
		// ties prefer changing at the (free) endpoints over interior
		// changes that count against k.
		m.initTrans[j] = p.Model.Trans(p.Initial, c) + changeEpsilon/2
	}
	if p.Final != nil {
		m.finalTrans = make([]float64, len(configs))
		for j, c := range configs {
			if c == *p.Final {
				continue
			}
			m.finalTrans[j] = p.Model.Trans(c, *p.Final) + changeEpsilon/2
		}
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	p.Metrics.noteMatrixBuild(time.Since(start))
	return m, nil
}

// buildTransRows evaluates the raw all-pairs TRANS table over the
// worker pool (row ownership keeps it bit-identical to serial).
func (p *Problem) buildTransRows(ctx context.Context, configs []Config) ([][]float64, error) {
	trans := make([][]float64, len(configs))
	err := ParallelFor(ctx, p.workers(), len(configs), func(i int) {
		from := configs[i]
		row := make([]float64, len(configs))
		for j, to := range configs {
			if i != j {
				row[j] = p.Model.Trans(from, to)
			}
		}
		trans[i] = row
	})
	if err != nil {
		return nil, err
	}
	return trans, nil
}

// BuildCostTables forces one full evaluation of the dense EXEC/TRANS
// cost tables over the usable candidate configurations — the
// preprocessing the dense-kernel graph solvers perform implicitly. It is
// exposed so benchmarks and diagnostics can measure the costing layer in
// isolation (it deliberately bypasses the tables of any attached
// SolveCache); regular
// callers just Solve.
func (p *Problem) BuildCostTables(ctx context.Context) error {
	if err := p.Validate(); err != nil {
		return err
	}
	configs, err := p.usableConfigs()
	if err != nil {
		return err
	}
	_, err = p.buildMatrices(ctx, configs, true)
	return err
}

// SolveUnconstrained finds the optimal dynamic physical design with no
// change bound: the shortest path through the sequence graph of Agrawal,
// Chu and Narasayya. The sequence graph is a DAG with one node per
// (stage, configuration); the shortest path is computed stage by stage —
// O(n·m²) with the dense kernel, O(n·m'·2^m') with the hypercube kernel
// over m' underlying structures (see DESIGN.md §12). The stage sweep
// checks the context between stages, so cancellation latency is bounded
// by one relaxation.
func SolveUnconstrained(ctx context.Context, p *Problem) (*Solution, error) {
	m, kern, err := p.solveInputs(ctx)
	if err != nil {
		return nil, err
	}
	designs, err := p.unconstrainedOn(ctx, m, kern)
	if err != nil {
		return nil, err
	}
	if designs == nil {
		return nil, fmt.Errorf("core: unconstrained problem has no feasible design")
	}
	return p.NewSolution(designs), nil
}

// unconstrainedOn is SolveUnconstrained's relaxation over tables and a
// kernel already fetched — the body it shares with the exact path's seed
// pass (solveExact). It returns the optimal design sequence, nil when no
// design is feasible.
func (p *Problem) unconstrainedOn(ctx context.Context, m *matrices, kern transRelaxer) ([]Config, error) {
	configs := m.configs
	nc := len(configs)
	dp := p.Tracer.Start(SpanSeqgraphDP)
	var (
		parents [][]int32
		cost    []float64
		workers int
		reused  int
		err     error
	)
	if hk, ok := kern.(*hyperKernel); ok && p.Cache != nil && hk.retainable() && p.Cache.reseeding() {
		// The pass keeps its rows on the cache, and reads the rows the
		// last kept pass left there.
		old := p.Cache.retained()
		workers = hk.crew(p.Stages, p.workers())
		var st *seedState
		if st, reused, err = hk.slide(ctx, m, old, workers == 2); err == nil {
			p.Cache.retain(st)
			parents, cost, workers = st.parents, hk.gather(st.cost[p.Stages-1]), st.workers
		}
		if old != nil {
			p.Metrics.noteSeedPass(reused)
		}
	} else {
		// One backing array serves every stage's parent row: one
		// allocation, not one per stage.
		parents = make([][]int32, p.Stages)
		if p.Stages > 1 {
			backing := make([]int32, (p.Stages-1)*nc)
			for i := 1; i < p.Stages; i++ {
				parents[i] = backing[(i-1)*nc : i*nc : i*nc]
			}
		}
		cost, workers, err = kern.forward(ctx, m, parents, p.workers())
	}
	dp.End(obs.Int("stages", int64(p.Stages)), obs.Int("configs", int64(nc)),
		obs.String("kernel", kern.name()), obs.Int("workers", int64(workers)),
		obs.Int("reused", int64(reused)), obs.Int("recomputed", int64(p.Stages-reused)), obs.Bool("ok", err == nil))
	if err != nil {
		return nil, err
	}

	bestEnd := -1
	bestCost := math.Inf(1)
	for j := 0; j < nc; j++ {
		v := cost[j]
		if m.finalTrans != nil {
			v += m.finalTrans[j]
		}
		if v < bestCost {
			bestCost = v
			bestEnd = j
		}
	}
	if bestEnd < 0 {
		return nil, nil
	}
	designs := make([]Config, p.Stages)
	j := int32(bestEnd)
	for i := p.Stages - 1; i >= 0; i-- {
		designs[i] = configs[j]
		if i > 0 {
			j = parents[i][j]
		}
	}
	return designs, nil
}
