package core

import (
	"context"
	"math"
	"math/bits"
	"sync/atomic"
)

// AdditiveTransModel is an optional CostModel capability: a model whose
// transition cost decomposes per structure,
//
//	TRANS(from, to) = Σ_{s ∈ to\from} add[s]  +  Σ_{s ∈ from\to} drop[s],
//
// with every add[s] and drop[s] finite and non-negative. The advisor's
// what-if model has exactly this shape (one build per created index,
// one flat drop per removed one), and it is what lets the exact graph
// solvers replace the all-pairs min-plus relaxation min_f cost[f] +
// TRANS(f, t) — O(m²) per stage over m candidates — with m' sweeps over
// the 2^m' configuration lattice of the m' underlying structures (see
// DESIGN.md §12).
type AdditiveTransModel interface {
	CostModel
	// TransParts returns the per-structure build (add) and drop cost
	// vectors, indexed by structure bit. Trans must equal the sums above
	// up to floating-point association, and the parts must be finite and
	// non-negative — solvers verify the latter and fall back to the
	// dense kernel otherwise, but they trust the decomposition itself.
	// Called at most once per solve, so it may allocate.
	TransParts() (add, drop []float64)
}

// transKernel selects the min-plus relaxation kernel the exact graph
// solvers use for the all-sources step min_f cost[f] + TRANS(f, t).
// Only tests choose one (Problem.kernel): the dense kernel stays the
// reference for non-additive models and sparse candidate lists.
type transKernel int

const (
	// kernelAuto picks per solve: the hypercube kernel when the model
	// reports additive transitions and the lattice sweep is cheaper than
	// the dense all-pairs scan, the dense kernel otherwise. The default.
	kernelAuto transKernel = iota
	// kernelDense forces the all-pairs relaxation regardless of model
	// capabilities.
	kernelDense
	// kernelHypercube forces the lattice relaxation whenever the model
	// is eligible (additive, valid parts, lattice within bounds);
	// ineligible models still fall back to the dense kernel.
	kernelHypercube
)

// maxLatticeBits caps the hypercube lattice: beyond 2^20 points the
// per-sweep scratch alone outweighs any plausible win over the dense
// scan, so wider spans always use the dense kernel.
const maxLatticeBits = 20

// transRelaxer is one min-plus relaxation engine, bound to a solve's
// cost tables. All relax methods are deterministic, and any method may
// be called from concurrent goroutines as long as each call owns its
// scratch (see newScratch).
//
// Throughout, T~(f, t) is the tie-broken edge cost: the model's raw
// TRANS(f, t) plus changeEpsilon when f != t, and exactly 0 when
// f == t — the same perturbation the dense tables used to bake in.
type transRelaxer interface {
	name() string

	// forward runs the unconstrained DP's stage loop over the tables:
	// cost[t] starts at initTrans[t] + exec[0][t], and each stage i ≥ 1
	// relaxes it to min over every source f — t itself included, at
	// transition cost 0 — of cost[f] + T~(f, t), plus exec[i][t]. The
	// argmin goes to parents[i][t] (-1 only when every source is
	// unreachable). It returns the last stage's costs in candidate order
	// and how many workers ran the loop; workers is the problem's
	// parallelism. The loop checks the context between stages.
	forward(ctx context.Context, m *matrices, parents [][]int32, workers int) (cost []float64, used int, err error)

	// relaxMove writes out[t] = min over f != t of prev[f] + T~(f, t)
	// with the argmin in from — the layered DP's switch step. The kernel
	// may instead report (out[t] = +Inf, from[t] = -1) when every
	// genuine move into t costs at least prev[t]: such a move lands one
	// layer deeper than the stay state of equal-or-lower cost, so it is
	// dominated for every layer-bounded read (see DESIGN.md §12).
	relaxMove(prev, out []float64, from []int32, scr *latticeScratch)

	// relaxBack writes out[c] = min over every destination j of
	// T~(c, j) + exec[j] + hnext[j] — the ranking solver's backward
	// cost-to-go relaxation for one stage. workers bounds the dense
	// kernel's per-cell fan-out; the returned error is the context
	// cancellation cause, if any.
	relaxBack(ctx context.Context, workers int, exec, hnext, out []float64, scr *latticeScratch) error

	// transCost returns T~(f, t) for candidate indices — the per-edge
	// cost the ranking expansion charges.
	transCost(f, t int) float64

	// newScratch returns the buffer one relax call at a time may use,
	// nil for a kernel that needs none.
	newScratch() *latticeScratch
}

// kernelChoice is a resolved kernel selection: which kernel to run and,
// for the hypercube, the structure-indexed transition parts and the
// span they act on.
type kernelChoice struct {
	kind      transKernel // kernelDense or kernelHypercube, never Auto
	add, drop []float64
	span      Config
	bits      int
}

// needTrans reports whether the choice requires the dense all-pairs
// TRANS table — the O(m²) model evaluation the hypercube kernel exists
// to skip.
func (ch kernelChoice) needTrans() bool { return ch.kind == kernelDense }

// kernel builds the relaxer for the choice over the built tables.
func (ch kernelChoice) kernel(m *matrices) transRelaxer {
	if ch.kind == kernelHypercube {
		return newHyperKernel(ch, m)
	}
	return &denseKernel{m: m}
}

// resolveKernel picks the relaxation kernel for one solve over the
// usable candidate list. The dense kernel is the safe default; the
// hypercube kernel requires an AdditiveTransModel with finite,
// non-negative parts covering every structure the candidates use, a
// span within maxLatticeBits, and — under kernelAuto — a lattice sweep
// (~2·bits·2^bits relaxation steps per stage) cheaper than the dense
// scan (nc² steps). Problem.kernel overrides the cost comparison but
// never the eligibility checks.
func resolveKernel(p *Problem, configs []Config) kernelChoice {
	dense := kernelChoice{kind: kernelDense}
	if p.kernel == kernelDense {
		return dense
	}
	am, ok := capability[AdditiveTransModel](p.Model)
	if !ok {
		return dense
	}
	add, drop := am.TransParts()
	span := spanOf(configs)
	nbits := span.Count()
	if nbits > maxLatticeBits {
		// An additive model wanted the lattice but the span is over the
		// ceiling: this is the silent O(n·c²) degradation users ask
		// about, so it is counted and surfaced (ErrLatticeTooLarge,
		// Recommendation.LatticeOverflows) instead of just happening.
		p.Metrics.noteLatticeOverflow()
		return dense
	}
	if !validTransParts(add, drop, span) {
		return dense
	}
	if p.kernel != kernelHypercube {
		nc := len(configs)
		if 2*nbits*(1<<uint(nbits)) >= nc*nc {
			return dense
		}
	}
	return kernelChoice{kind: kernelHypercube, add: add, drop: drop, span: span, bits: nbits}
}

// spanOf is the union of a candidate list: every structure some
// candidate uses.
func spanOf(configs []Config) Config {
	var span Config
	for _, c := range configs {
		span |= c
	}
	return span
}

// validTransParts is the one check of the AdditiveTransModel contract
// anything in the package makes: add and drop must reach every structure
// of span with a finite, non-negative cost. The hypercube kernel and the
// partitioner both trust the decomposition itself once this holds.
func validTransParts(add, drop []float64, span Config) bool {
	for s := span; s != 0; s &= s - 1 {
		bit := bits.TrailingZeros64(uint64(s))
		if bit >= len(add) || bit >= len(drop) {
			return false
		}
		for _, v := range [2]float64{add[bit], drop[bit]} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return false
			}
		}
	}
	return true
}

// denseKernel is the all-pairs relaxation over the raw TRANS table.
// Adding changeEpsilon to the raw cell at use time reproduces, bit for
// bit, the previously baked-in table values, so every dense solve is
// bitwise identical to the pre-kernel solvers.
type denseKernel struct{ m *matrices }

func (k *denseKernel) name() string                { return "dense" }
func (k *denseKernel) newScratch() *latticeScratch { return nil }

func (k *denseKernel) transCost(f, t int) float64 {
	if f == t {
		return 0
	}
	return k.m.trans[f][t] + changeEpsilon
}

func (k *denseKernel) forward(ctx context.Context, m *matrices, parents [][]int32, _ int) ([]float64, int, error) {
	nc := len(m.configs)
	cost := make([]float64, nc)
	for j := range cost {
		cost[j] = m.initTrans[j] + m.exec[0][j]
	}
	next := make([]float64, nc)
	for i := 1; i < len(m.exec); i++ {
		if err := ctxErr(ctx); err != nil {
			return nil, 1, err
		}
		k.relaxFull(cost, next, parents[i])
		exec := m.exec[i]
		for j := range next {
			next[j] += exec[j]
		}
		cost, next = next, cost
	}
	return cost, 1, nil
}

// relaxFull is one stage of forward: out[t] = min over every source f of
// prev[f] + T~(f, t), the argmin in from.
func (k *denseKernel) relaxFull(prev, out []float64, from []int32) {
	trans := k.m.trans
	nc := len(prev)
	for t := 0; t < nc; t++ {
		best := math.Inf(1)
		bestFrom := int32(-1)
		for f := 0; f < nc; f++ {
			w := trans[f][t]
			if f != t {
				w += changeEpsilon
			}
			if v := prev[f] + w; v < best {
				best = v
				bestFrom = int32(f)
			}
		}
		out[t] = best
		from[t] = bestFrom
	}
}

func (k *denseKernel) relaxMove(prev, out []float64, from []int32, _ *latticeScratch) {
	trans := k.m.trans
	nc := len(prev)
	for t := 0; t < nc; t++ {
		best := math.Inf(1)
		bestFrom := int32(-1)
		for f := 0; f < nc; f++ {
			if f == t {
				continue
			}
			if v := prev[f] + (trans[f][t] + changeEpsilon); v < best {
				best = v
				bestFrom = int32(f)
			}
		}
		out[t] = best
		from[t] = bestFrom
	}
}

func (k *denseKernel) relaxBack(ctx context.Context, workers int, exec, hnext, out []float64, _ *latticeScratch) error {
	trans := k.m.trans
	nc := len(out)
	return ParallelFor(ctx, workers, nc, func(c int) {
		best := math.Inf(1)
		row := trans[c]
		for j := 0; j < nc; j++ {
			w := row[j]
			if j != c {
				w += changeEpsilon
			}
			if v := w + exec[j] + hnext[j]; v < best {
				best = v
			}
		}
		out[c] = best
	})
}

// lattice is one lattice-sized buffer: per subset of the span, the best
// value found and the candidate index it originated from (-1 while no
// candidate reaches the cell).
type lattice struct {
	val []float64
	org []int32
}

func newLattice(size int) lattice {
	return lattice{val: make([]float64, size), org: make([]int32, size)}
}

// latticeScratch is the per-call buffer a hypercube move or backward
// relaxation sweeps over. One scratch must not be shared by concurrent
// relax calls; the layered DP keeps one per layer so the layer sweep can
// fan out.
type latticeScratch struct {
	lattice
	w []float64 // combined destination weights for backward sweeps
}

// hyperKernel is the subset-lattice relaxation: seed every candidate's
// cost at its lattice point, run one strip sweep per structure (pricing
// drops) then one add sweep per structure (pricing builds), and read
// each candidate's point back. A sweep path strips f\t then adds t\f,
// realizing TRANS(f, t) exactly; any extra drop/add pair costs >= 0, so
// the lattice minimum over all paths equals the all-pairs minimum — in
// O(bits·2^bits) instead of O(nc²) per relaxation, and with no O(nc²)
// TRANS table build at all. See DESIGN.md §12 for the derivation.
type hyperKernel struct {
	configs    []Config
	latIdx     []int32 // candidate index -> lattice point
	candAt     []int32 // lattice point -> candidate index, -1 off the list
	addL, drpL []float64
	addS, drpS []float64 // structure-indexed parts for transCost
	nbits      int
	size       int
	// top is the highest lattice bit (-1 on the one-point lattice) and
	// half = 2^top: the lower half of the lattice lacks the top bit, the
	// upper half [half, size) holds it.
	top, half int
	// observe, when set, sees every forward stage's final lattice, half
	// by half, from the worker that owns the half: a test's view of the
	// sweeps, nil otherwise.
	observe func(stage, lo int, half lattice)
}

// newHyperKernel binds the lattice relaxation to a solve's tables. The
// candidates' lattice points are the tables' list index's (listIndex),
// shared read-only: the span the kernel sweeps is the list's.
func newHyperKernel(ch kernelChoice, m *matrices) *hyperKernel {
	k := &hyperKernel{
		configs: m.configs,
		latIdx:  m.idx.latIdx,
		candAt:  m.idx.candAt,
		nbits:   ch.bits,
		size:    1 << uint(ch.bits),
		addS:    ch.add,
		drpS:    ch.drop,
		top:     ch.bits - 1,
	}
	k.half = k.size >> 1
	k.addL = make([]float64, ch.bits)
	k.drpL = make([]float64, ch.bits)
	b := 0
	for s := ch.span; s != 0; s &= s - 1 {
		bit := bits.TrailingZeros64(uint64(s))
		k.addL[b] = ch.add[bit]
		k.drpL[b] = ch.drop[bit]
		b++
	}
	return k
}

func (k *hyperKernel) name() string { return "hypercube" }

func (k *hyperKernel) newScratch() *latticeScratch {
	return &latticeScratch{lattice: newLattice(k.size), w: make([]float64, len(k.configs))}
}

func (k *hyperKernel) transCost(f, t int) float64 {
	if f == t {
		return 0
	}
	cf, ct := k.configs[f], k.configs[t]
	total := 0.0
	for d := ct &^ cf; d != 0; d &= d - 1 {
		total += k.addS[bits.TrailingZeros64(uint64(d))]
	}
	for d := cf &^ ct; d != 0; d &= d - 1 {
		total += k.drpS[bits.TrailingZeros64(uint64(d))]
	}
	return total + changeEpsilon
}

// scatter seeds l with src, indexed by candidate, at the candidates'
// points; every other cell is unreached (+Inf, origin -1).
func (k *hyperKernel) scatter(src []float64, l lattice) {
	inf := math.Inf(1)
	for x := range l.val {
		l.val[x] = inf
	}
	copy(l.org, k.candAt)
	for ci, li := range k.latIdx {
		l.val[li] = src[ci]
	}
}

// sweep relaxes a seeded lattice in place: one strip pass per structure
// in ascending order, then one add pass per structure. Forward sweeps
// price strips as drops and additions as builds — min over sources f of
// src[f] + TRANS(f, ·); reverse sweeps swap the prices, computing min
// over destinations j of src[j] + TRANS(·, j) for the backward
// cost-to-go. A pass writes a cell only for a strictly lower value, so
// ties keep the first-written origin and the sweep is deterministic.
//
// A pass on any bit but the top one never leaves a half of the lattice,
// so the passes form four phases — the low bits' strips, the top strip,
// the low bits' adds, the top add — and this is their one-worker
// schedule; the forward pass also runs them split between two workers
// (seedRun.split).
func (k *hyperKernel) sweep(l lattice, stripPrice, addPrice []float64) {
	if k.top < 0 {
		return
	}
	k.stripLow(l, 0, k.size, stripPrice)
	k.stripTop(l, stripPrice[k.top])
	k.addLow(l, l, 0, k.size, addPrice)
	k.addTop(l, l, addPrice[k.top])
}

// stripLow runs the strip passes of the bits below the top over the cells
// [lo, hi) of l: the whole lattice or one half of it. A strip pass on bit
// b lowers each cell lacking b to its partner holding b plus the price.
// Bits go two to a pass (strip2), ascending, the last one alone when
// their count is odd.
func (k *hyperKernel) stripLow(l lattice, lo, hi int, prices []float64) {
	b := 0
	for ; b+1 < k.top; b += 2 {
		strip2(l, lo, hi, 1<<uint(b), prices[b], prices[b+1])
	}
	if b < k.top {
		strip1(l, lo, hi, 1<<uint(b), prices[b])
	}
}

// addLow runs the add passes of the bits below the top over the cells
// [lo, hi), reading src and writing dst: the first pass moves the cells
// from src into dst (a plain copy when there is no such bit), later ones
// run in place on dst. src and dst may be one buffer. An add pass on bit
// b lowers each cell holding b to its partner lacking b plus the price.
func (k *hyperKernel) addLow(src, dst lattice, lo, hi int, prices []float64) {
	if k.top < 1 {
		copy(dst.val[lo:hi], src.val[lo:hi])
		copy(dst.org[lo:hi], src.org[lo:hi])
		return
	}
	b := 0
	for ; b+1 < k.top; b += 2 {
		add2(src, dst, lo, hi, 1<<uint(b), prices[b], prices[b+1])
		src = dst
	}
	if b < k.top {
		add1(src, dst, lo, hi, 1<<uint(b), prices[b])
	}
}

// stripTop is the top bit's strip pass: each lower-half cell x of l from
// the upper-half cell x+half.
func (k *hyperKernel) stripTop(l lattice, price float64) {
	val, org := l.val[:k.half], l.org[:k.half]
	upVal, upOrg := l.val[k.half:k.size], l.org[k.half:k.size]
	upVal, upOrg = upVal[:len(val)], upOrg[:len(val)]
	for x := range val {
		if v := upVal[x] + price; v < val[x] {
			val[x] = v
			org[x] = upOrg[x]
		}
	}
}

// addTop is the top bit's add pass: each upper-half cell x+half of dst
// from the lower-half cell x of src.
func (k *hyperKernel) addTop(src, dst lattice, price float64) {
	loVal, loOrg := src.val[:k.half], src.org[:k.half]
	val, org := dst.val[k.half:k.size], dst.org[k.half:k.size]
	loVal, loOrg, org = loVal[:len(val)], loOrg[:len(val)], org[:len(val)]
	for x := range val {
		if v := loVal[x] + price; v < val[x] {
			val[x] = v
			org[x] = loOrg[x]
		}
	}
}

// strip1 is one strip pass on bit (a power of two) over [lo, hi): the
// cells of each 2·bit block lacking the bit from their partners holding
// it.
func strip1(l lattice, lo, hi, bit int, p float64) {
	val, org := l.val, l.org
	for blk := lo; blk < hi; blk += 2 * bit {
		for x := blk; x < blk+bit; x++ {
			if v := val[x+bit] + p; v < val[x] {
				val[x] = v
				org[x] = org[x+bit]
			}
		}
	}
}

// add1 is one add pass on bit over [lo, hi) from src into dst: the cells
// holding the bit from their partners lacking it, which are copied.
func add1(src, dst lattice, lo, hi, bit int, p float64) {
	for blk := lo; blk < hi; blk += 2 * bit {
		for x := blk; x < blk+bit; x++ {
			y := x + bit
			vx, ox := src.val[x], src.org[x]
			vy, oy := src.val[y], src.org[y]
			if v := vx + p; v < vy {
				vy, oy = v, ox
			}
			dst.val[x], dst.org[x] = vx, ox
			dst.val[y], dst.org[y] = vy, oy
		}
	}
}

// strip2 is the strip passes on bit and 2·bit as one pass over [lo, hi).
// The four cells a, b = a+bit, c = a+2·bit, d = a+3·bit differ in those
// two bits only, so the quad sees exactly the two passes' operations in
// their order: a from b and c from d, then a from c and b from d.
func strip2(l lattice, lo, hi, bit int, p0, p1 float64) {
	val, org := l.val, l.org
	for blk := lo; blk < hi; blk += 4 * bit {
		for a := blk; a < blk+bit; a++ {
			b, c, d := a+bit, a+2*bit, a+3*bit
			va, vb, vc, vd := val[a], val[b], val[c], val[d]
			oa, ob, oc, od := org[a], org[b], org[c], org[d]
			if v := vb + p0; v < va {
				va, oa = v, ob
			}
			if v := vd + p0; v < vc {
				vc, oc = v, od
			}
			if v := vc + p1; v < va {
				va, oa = v, oc
			}
			if v := vd + p1; v < vb {
				vb, ob = v, od
			}
			val[a], val[b], val[c] = va, vb, vc
			org[a], org[b], org[c] = oa, ob, oc
		}
	}
}

// add2 is the add passes on bit and 2·bit as one pass over [lo, hi) from
// src into dst (which may be src): b from a and d from c, then c from a
// and d from b.
func add2(src, dst lattice, lo, hi, bit int, p0, p1 float64) {
	for blk := lo; blk < hi; blk += 4 * bit {
		for a := blk; a < blk+bit; a++ {
			b, c, d := a+bit, a+2*bit, a+3*bit
			va, vb, vc, vd := src.val[a], src.val[b], src.val[c], src.val[d]
			oa, ob, oc, od := src.org[a], src.org[b], src.org[c], src.org[d]
			if v := va + p0; v < vb {
				vb, ob = v, oa
			}
			if v := vc + p0; v < vd {
				vd, od = v, oc
			}
			if v := va + p1; v < vc {
				vc, oc = v, oa
			}
			if v := vb + p1; v < vd {
				vd, od = v, ob
			}
			dst.val[a], dst.val[b], dst.val[c], dst.val[d] = va, vb, vc, vd
			dst.org[a], dst.org[b], dst.org[c], dst.org[d] = oa, ob, oc, od
		}
	}
}

// splitMinBits is the narrowest lattice whose forward pass splits
// between two workers; below it a stage is too short for the split's two
// hand-offs to pay (BenchmarkSeedPass).
const splitMinBits = 8

// forward is the hypercube kernel's stage loop (seedRun), run without
// retention: the pass keeps two cost rows, not one per stage.
func (k *hyperKernel) forward(ctx context.Context, m *matrices, parents [][]int32, workers int) ([]float64, int, error) {
	used := k.crew(len(m.exec), workers)
	cost, err := k.runForward(ctx, m, parents, used == 2)
	return cost, used, err
}

// crew is how many workers a seed pass over stages gets: two when the
// lattice is at least splitMinBits wide and the problem's parallelism
// and the runtime give it two processors, one otherwise. A slide aligned
// with a retained pass starts its crew only after soloStages stages
// (seedRun.loop).
func (k *hyperKernel) crew(stages, workers int) int {
	if k.nbits >= splitMinBits && stages > 1 {
		return crewSize(workers, 2)
	}
	return 1
}

// retainable reports whether a seed pass over this lattice may keep its
// rows on the problem's SolveCache: when at least half the lattice holds
// candidates. The retained cost rows are in lattice order, so a sparse
// lattice (a few candidates over many structures) would retain mostly
// unreached cells.
func (k *hyperKernel) retainable() bool { return k.size <= 2*len(k.configs) }

// seedRun is one forward pass of the hypercube kernel. Its DP costs stay
// in lattice order — a cell per lattice point, +Inf off the candidate
// list — so a stage seeds its lattice with two copies; parent rows stay
// in candidate order, the shape every backtrack reads. Each stage's
// costs are less the previous stage's minimum (readBack), so two windows
// that share their recent stages soon hold bit-equal rows; a pass over a
// window that slid past a retained one (old) stops recomputing at the
// first stage whose row bit-matches the retained row there, and takes
// the retained rows from the next stage on (DESIGN.md §12).
type seedRun struct {
	stageCrew
	k    *hyperKernel
	exec [][]float64
	// cost[i] is stage i's costs and parents[i] its parent row. A kept
	// pass gives every stage its own parent row and every retained stage
	// (retainsCost) its own cost row, allocated a chunk of stages
	// at a time by worker 0 (ensure); the other stages' costs alternate
	// between two scratch rows. A pass that is not kept uses the scratch
	// rows for every stage and the caller's parent rows.
	cost    [][]float64
	parents [][]int32
	scratch [2][]float64
	keep    bool
	base    int        // the kept state's base (seedState.base)
	chunk   int        // stages the last allocation covered
	lat     [2]lattice // stage i sweeps lat[i&1]; one worker uses lat[0] only
	// crewed is set when the pass may split its stages between two
	// workers; solo is how many more stages it runs on one worker first
	// (soloStages for an aligned pass, 0 otherwise), and workers is the
	// most workers a stage has run on.
	crewed  bool
	solo    int
	workers int
	// half[i&1][w] is the minimum of the costs worker w wrote at stage i
	// (one worker: slot 1 stays +Inf). The two workers learn each other's
	// through the hand-offs below.
	half [2][2]float64
	// old is the retained pass whose stage i+h is this pass's stage i;
	// for every stage i < until, same[i&1][w] says whether worker w's
	// half of stage i bit-matched old's row (one worker: slot 1 stays
	// true). converged is the first stage that matched whole, -1 before.
	old       *seedState
	h, until  int
	same      [2][2]bool
	converged int
	// The split's hand-offs: the last stage whose upper half worker 1 has
	// stripped, and whose lower half worker 0 has added.
	stripped, added atomic.Int64
}

// runForward runs the stage loop without retention on one worker or,
// with split, on two; the two schedules give the same bits (split). It
// returns the last stage's costs in candidate order.
func (k *hyperKernel) runForward(ctx context.Context, m *matrices, parents [][]int32, split bool) ([]float64, error) {
	r, err := k.pass(ctx, m, parents, nil, split)
	if err != nil {
		return nil, err
	}
	return k.gather(r.cost[len(r.cost)-1]), nil
}

// slide runs the stage loop keeping its rows, and returns them as the
// state to retain with the number of stages it took from old, the
// retained state of an earlier pass: when the problem lines up with old
// (seedState.align), the loop recomputes stages only until one
// bit-matches old's row for it, takes old's rows for the rest of the
// overlap, and runs the stages after it. The answer is a cold pass's,
// bit for bit.
func (k *hyperKernel) slide(ctx context.Context, m *matrices, old *seedState, split bool) (*seedState, int, error) {
	r, err := k.pass(ctx, m, nil, old, split)
	if err != nil {
		return nil, 0, err
	}
	reused := 0
	if r.converged >= 0 {
		reused = r.until - r.converged
	}
	for i := range r.cost {
		if !retainsCost(r.base, i, len(r.cost)) {
			r.cost[i] = nil
		}
	}
	st := &seedState{configs: k.configs, addL: k.addL, drpL: k.drpL,
		exec: m.exec, cost: r.cost, parents: r.parents, base: r.base, workers: r.workers}
	return st, reused, nil
}

// pass is the stage loop runForward and slide share; parents is nil
// exactly when the pass keeps its rows, and old is nil when it does not.
// With split, the stages go to the split crew, except that a pass
// aligned with old runs its first soloStages stages on one worker.
func (k *hyperKernel) pass(ctx context.Context, m *matrices, parents [][]int32, old *seedState, split bool) (*seedRun, error) {
	stages := len(m.exec)
	r := &seedRun{k: k, exec: m.exec, cost: make([][]float64, stages), parents: parents,
		keep: parents == nil, converged: -1, crewed: split, workers: 1}
	for b := range r.scratch {
		r.scratch[b] = k.unreached()
	}
	h, until, aligned := old.align(k, m.exec)
	if r.keep {
		if aligned {
			r.base = old.base + h
		}
		r.parents = make([][]int32, stages)
		r.ensure(0)
	} else {
		for i := range r.cost {
			r.cost[i] = r.scratch[i&1]
		}
	}
	first := r.cost[0]
	for ci, li := range k.latIdx {
		first[li] = m.initTrans[ci] + m.exec[0][ci]
	}
	r.lat[0] = newLattice(k.size)
	// The one-worker schedule leaves worker 1's slots as neutral: no
	// cost, and a match.
	inf := math.Inf(1)
	r.half[0][1], r.half[1][1] = inf, inf
	r.same[0][1], r.same[1][1] = true, true
	if aligned {
		r.old, r.h, r.until = old, h, until
		if row := old.cost[h]; row != nil && bitsEqual(first, row) {
			r.converged = 0
		}
		if split {
			r.solo = soloStages
		}
	}
	if r.converged < 0 {
		if err := r.loop(ctx, 1, stages); err != nil {
			return nil, err
		}
	}
	if c := r.converged; c >= 0 {
		// Every stage after c reads only bit-equal rows and equal EXEC
		// rows and prices: it is old's, which the headers share.
		end := r.until + 1
		copy(r.cost[c+1:end], old.cost[c+1+h:end+h])
		copy(r.parents[c+1:end], old.parents[c+1+h:end+h])
		if err := r.loop(ctx, end, stages); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// soloStages is how many stages a pass aligned with a retained one runs
// on one worker before it starts its split crew. Such a pass usually
// converges within a few stages, and the crew's start and per-stage
// hand-offs cost more than that little work; one that has not converged
// within two of the retained cost rows it compares with (costEvery
// apart) is taken to be a long pass, and the crew runs its other stages.
const soloStages = 2 * costEvery

// loop runs stages [from, to), starting from stage from-1's costs: on one
// worker while the pass's solo stages last, then on the split crew when
// the pass has one. It stops after the stage the pass converges at.
func (r *seedRun) loop(ctx context.Context, from, to int) error {
	converged := r.converged
	for from < to && r.converged == converged {
		n, workers, step := to, 1, r.whole
		switch {
		case r.solo > 0:
			n = min(to, from+r.solo)
		case r.crewed:
			if r.lat[1].val == nil {
				r.lat[1] = newLattice(r.k.size)
			}
			workers, step, r.workers = 2, r.split, 2
		}
		r.half[(from-1)&1] = [2]float64{rowMin(r.cost[from-1]), math.Inf(1)}
		if err := r.run(ctx, from, n, workers, step); err != nil {
			return err
		}
		if r.converged != converged {
			n = r.converged + 1
		}
		if workers == 1 {
			r.solo = max(0, r.solo-(n-from))
		}
		from = n
	}
	return nil
}

// unreached is a lattice-sized cost row with every cell at +Inf.
func (k *hyperKernel) unreached() []float64 {
	row := make([]float64, k.size)
	inf := math.Inf(1)
	for x := range row {
		row[x] = inf
	}
	return row
}

// gather reads a lattice-ordered cost row in candidate order.
func (k *hyperKernel) gather(row []float64) []float64 {
	out := make([]float64, len(k.latIdx))
	for ci, li := range k.latIdx {
		out[ci] = row[li]
	}
	return out
}

// ensure gives a kept pass's stage i its rows: on the first stage
// without them, one allocation covers the next chunk of stages, twice
// the last chunk (at least four), so a cold pass makes a handful of
// allocations and a slide that converges early only small ones. Only
// worker 0 calls it, before its hand-offs of stage i publish the rows.
func (r *seedRun) ensure(i int) {
	if !r.keep || r.cost[i] != nil {
		return
	}
	k := r.k
	n := min(max(4, 2*r.chunk), len(r.cost)-i)
	r.chunk = n
	rows := 0
	for j := i; j < i+n; j++ {
		if retainsCost(r.base, j, len(r.cost)) {
			rows++
		}
	}
	costs := make([]float64, rows*k.size)
	if len(k.configs) < k.size {
		inf := math.Inf(1)
		for x := range costs {
			costs[x] = inf
		}
	}
	nc := len(k.configs)
	pars := make([]int32, n*nc)
	for j := 0; j < n && r.cost[i+j] == nil; j++ {
		if retainsCost(r.base, i+j, len(r.cost)) {
			r.cost[i+j], costs = costs[:k.size:k.size], costs[k.size:]
		} else {
			r.cost[i+j] = r.scratch[(i+j)&1]
		}
		r.parents[i+j] = pars[j*nc : (j+1)*nc : (j+1)*nc]
	}
}

// converges reports whether stage i's row bit-matched old's whole, and
// if so records i as the stage the loop stops after. Worker 0 asks at
// stage i+1, once both halves of stage i are in.
func (r *seedRun) converges(i int) bool {
	if i < r.until && r.same[i&1][0] && r.same[i&1][1] {
		r.converged = i
		return true
	}
	return false
}

// whole is stage i on one worker: the one-worker sweep of the lattice.
func (r *seedRun) whole(_, i int) bool {
	if r.converges(i - 1) {
		return false
	}
	r.ensure(i)
	k, l := r.k, r.lat[0]
	r.seed(l, i, 0, k.size)
	k.sweep(l, k.drpL, k.addL)
	r.readBack(l, i, 0, 0, k.size)
	return true
}

// split is stage i as the two-worker schedule of the same phases:
// worker 0 owns the lower half of the lattice and worker 1 the upper
// half, which the low-bit passes never leave. Per stage the two exchange
// two half-lattices: worker 0's top strip reads the upper half once
// worker 1 has stripped it (stripped), and worker 1's top add reads the
// lower half once worker 0 has added it (added). Worker 1 writes its
// first add pass out of place, into the pair's other buffer, so the
// upper half the top strip reads stays as stripped; the stage parity
// swaps the buffers' roles, so neither worker writes a cell the other
// may still read. No copy is made at a hand-off, and every cell sees the
// one-worker sweep's operations on the same operands in the same order:
// values, origins, costs and parents are the same bits.
//
// The same two hand-offs carry what each worker wrote at stage i-1 — its
// half's minimum and whether its half matched old's row — since a worker
// publishes stage i only after finishing stage i-1. Worker 0 stops the
// loop at stage i when stage i-1 matched whole, before it publishes
// added, so worker 1 never reads back a stage that is not run.
func (r *seedRun) split(w, i int) bool {
	k := r.k
	cur, alt := r.lat[i&1], r.lat[(i+1)&1]
	if w == 0 {
		r.ensure(i)
		r.seed(cur, i, 0, k.half)
		k.stripLow(cur, 0, k.half, k.drpL)
		if !r.await(&r.stripped, i) || r.converges(i-1) {
			return false
		}
		k.stripTop(cur, k.drpL[k.top])
		k.addLow(cur, cur, 0, k.half, k.addL)
		r.added.Store(int64(i))
		r.readBack(cur, i, 0, 0, k.half)
		return true
	}
	r.seed(cur, i, k.half, k.size)
	k.stripLow(cur, k.half, k.size, k.drpL)
	r.stripped.Store(int64(i))
	k.addLow(cur, alt, k.half, k.size, k.addL)
	if !r.await(&r.added, i) {
		return false
	}
	k.addTop(cur, alt, k.addL[k.top])
	r.readBack(alt, i, 1, k.half, k.size)
	return true
}

// seed starts stage i's lattice l on the cells [lo, hi): the previous
// stage's costs as values, the candidates' own indices as origins.
func (r *seedRun) seed(l lattice, i, lo, hi int) {
	copy(l.val[lo:hi], r.cost[i-1][lo:hi])
	copy(l.org[lo:hi], r.k.candAt[lo:hi])
}

// readBack finishes stage i for worker w's candidates in [lo, hi), whose
// final lattice cells are in l: t stays at its previous cost, or moves in
// from its cell's origin at the cell's value plus changeEpsilon when that
// is strictly cheaper. The previous stage's minimum is subtracted and the
// stage's EXEC added, and the choice is recorded as t's parent. The
// minimum of what it wrote, and whether it bit-matches old's row, go to
// worker w's slots of stage i.
func (r *seedRun) readBack(l lattice, i, w, lo, hi int) {
	k := r.k
	if k.observe != nil {
		k.observe(i, lo, lattice{val: l.val[lo:hi], org: l.org[lo:hi]})
	}
	mu := r.half[(i-1)&1][0]
	if v := r.half[(i-1)&1][1]; v < mu {
		mu = v
	}
	if math.IsInf(mu, 0) {
		mu = 0 // no candidate is reachable, or the costs are unbounded
	}
	prev, next := r.cost[i-1], r.cost[i]
	exec, par := r.exec[i], r.parents[i]
	lowest := math.Inf(1)
	for x := lo; x < hi; x++ {
		t := k.candAt[x]
		if t < 0 {
			continue
		}
		stay := prev[x]
		out, from := stay, t
		if o := l.org[x]; o < 0 || o == t {
			// Either nothing reaches t, or the identity won the lattice
			// (every genuine move costs at least stay + epsilon).
			if math.IsInf(stay, 1) {
				from = -1
			}
		} else if mv := l.val[x] + changeEpsilon; mv < stay {
			out, from = mv, o
		}
		v := (out - mu) + exec[t]
		if v < lowest {
			lowest = v
		}
		next[x] = v
		par[t] = from
	}
	r.half[i&1][w] = lowest
	if i < r.until {
		row := r.old.cost[i+r.h]
		r.same[i&1][w] = row != nil && bitsEqual(next[lo:hi], row[lo:hi])
	}
}

func (k *hyperKernel) relaxMove(prev, out []float64, from []int32, scr *latticeScratch) {
	k.scatter(prev, scr.lattice)
	k.sweep(scr.lattice, k.drpL, k.addL)
	inf := math.Inf(1)
	for ti, li := range k.latIdx {
		o := scr.org[li]
		if o < 0 || int(o) == ti || math.IsInf(scr.val[li], 1) {
			// No genuine source reaches t cheaper than prev[t]: when the
			// identity wins the lattice, every move into t costs at least
			// prev[t] and lands one layer deeper than the stay state that
			// costs prev[t] — dominated, so it is safe to skip.
			out[ti] = inf
			from[ti] = -1
			continue
		}
		out[ti] = scr.val[li] + changeEpsilon
		from[ti] = o
	}
}

func (k *hyperKernel) relaxBack(ctx context.Context, _ int, exec, hnext, out []float64, scr *latticeScratch) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	w := scr.w
	for j := range w {
		w[j] = exec[j] + hnext[j]
	}
	k.scatter(w, scr.lattice)
	k.sweep(scr.lattice, k.addL, k.drpL) // reversed: strips price builds, adds drops
	for ci, li := range k.latIdx {
		best := w[ci] // staying at c: zero transition, no epsilon
		if v := scr.val[li] + changeEpsilon; v < best {
			best = v
		}
		out[ci] = best
	}
	return nil
}
