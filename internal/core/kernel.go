package core

import (
	"context"
	"math"
	"math/bits"
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

// TransKernel selects the min-plus relaxation kernel the exact graph
// solvers use for the all-sources step min_f cost[f] + TRANS(f, t).
type TransKernel int

const (
	// KernelAuto picks per solve: the hypercube kernel when the model
	// reports additive transitions and the lattice sweep is cheaper than
	// the dense all-pairs scan, the dense kernel otherwise. The default.
	KernelAuto TransKernel = iota
	// KernelDense forces the all-pairs relaxation regardless of model
	// capabilities.
	KernelDense
	// KernelHypercube forces the lattice relaxation whenever the model
	// is eligible (additive, valid parts, lattice within bounds);
	// ineligible models still fall back to the dense kernel.
	KernelHypercube
)

// String names the kernel preference.
func (k TransKernel) String() string {
	switch k {
	case KernelAuto:
		return "auto"
	case KernelDense:
		return "dense"
	case KernelHypercube:
		return "hypercube"
	default:
		return "TransKernel(?)"
	}
}

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

	// relaxFull writes out[t] = min over every source f — t itself
	// included, at transition cost 0 — of prev[f] + T~(f, t), with the
	// argmin in from (-1 only when every source is unreachable). The
	// unconstrained DP's whole-stage relaxation.
	relaxFull(prev, out []float64, from []int32, scr *latticeScratch)

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
	kind      TransKernel // KernelDense or KernelHypercube, never Auto
	add, drop []float64
	span      Config
	bits      int
}

// needTrans reports whether the choice requires the dense all-pairs
// TRANS table — the O(m²) model evaluation the hypercube kernel exists
// to skip.
func (ch kernelChoice) needTrans() bool { return ch.kind == KernelDense }

// kernel builds the relaxer for the choice over the built tables.
func (ch kernelChoice) kernel(m *matrices) transRelaxer {
	if ch.kind == KernelHypercube {
		return newHyperKernel(ch, m.configs)
	}
	return &denseKernel{m: m}
}

// resolveKernel picks the relaxation kernel for one solve over the
// usable candidate list. The dense kernel is the safe default; the
// hypercube kernel requires an AdditiveTransModel with finite,
// non-negative parts covering every structure the candidates use, a
// span within maxLatticeBits, and — under KernelAuto — a lattice sweep
// (~2·bits·2^bits relaxation steps per stage) cheaper than the dense
// scan (nc² steps). Problem.Kernel overrides the cost comparison but
// never the eligibility checks.
func resolveKernel(p *Problem, configs []Config) kernelChoice {
	dense := kernelChoice{kind: KernelDense}
	if p.Kernel == KernelDense {
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
	if p.Kernel != KernelHypercube {
		nc := len(configs)
		if 2*nbits*(1<<uint(nbits)) >= nc*nc {
			return dense
		}
	}
	return kernelChoice{kind: KernelHypercube, add: add, drop: drop, span: span, bits: nbits}
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

func (k *denseKernel) relaxFull(prev, out []float64, from []int32, _ *latticeScratch) {
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

// latticeScratch is the per-call buffer a hypercube relaxation sweeps
// over. One scratch must not be shared by concurrent relax calls; the
// layered DP keeps one per layer so the layer sweep can fan out.
type latticeScratch struct {
	val []float64 // lattice cost, one cell per subset of the span
	org []int32   // candidate index the cell's best value originated from
	w   []float64 // combined destination weights for backward sweeps
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
	addL, drpL []float64
	addS, drpS []float64 // structure-indexed parts for transCost
	nbits      int
	size       int
}

func newHyperKernel(ch kernelChoice, configs []Config) *hyperKernel {
	k := &hyperKernel{
		configs: configs,
		nbits:   ch.bits,
		size:    1 << uint(ch.bits),
		addS:    ch.add,
		drpS:    ch.drop,
	}
	k.addL = make([]float64, ch.bits)
	k.drpL = make([]float64, ch.bits)
	b := 0
	for s := ch.span; s != 0; s &= s - 1 {
		bit := bits.TrailingZeros64(uint64(s))
		k.addL[b] = ch.add[bit]
		k.drpL[b] = ch.drop[bit]
		b++
	}
	k.latIdx = make([]int32, len(configs))
	for ci, c := range configs {
		k.latIdx[ci] = int32(compress(c, ch.span))
	}
	return k
}

// compress maps a configuration to its lattice point: bit b of the
// result is the b-th lowest set bit of span. Candidates are distinct,
// so the mapping is injective over the candidate list.
func compress(c, span Config) int {
	out, b := 0, 0
	for s := span; s != 0; s &= s - 1 {
		if c&(s&-s) != 0 {
			out |= 1 << uint(b)
		}
		b++
	}
	return out
}

func (k *hyperKernel) name() string { return "hypercube" }

func (k *hyperKernel) newScratch() *latticeScratch {
	return &latticeScratch{
		val: make([]float64, k.size),
		org: make([]int32, k.size),
		w:   make([]float64, len(k.configs)),
	}
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

// sweep runs the lattice relaxation over the scratch: seed src at the
// candidates' points, strip sweeps in ascending structure order, then
// add sweeps. Forward sweeps (reverse=false) price strips as drops and
// additions as builds — min over sources f of src[f] + TRANS(f, ·).
// Reverse sweeps swap the prices, computing min over destinations j of
// src[j] + TRANS(·, j) for the backward cost-to-go. Ties keep the
// first-written origin, so the sweep is deterministic.
func (k *hyperKernel) sweep(src []float64, scr *latticeScratch, reverse bool) {
	val, org := scr.val, scr.org
	inf := math.Inf(1)
	for x := range val {
		val[x] = inf
		org[x] = -1
	}
	for ci, li := range k.latIdx {
		val[li] = src[ci]
		org[li] = int32(ci)
	}
	stripPrice, addPrice := k.drpL, k.addL
	if reverse {
		stripPrice, addPrice = k.addL, k.drpL
	}
	// One pass per structure over the lattice as pair blocks: cells
	// [blk, blk+bit) lack the structure, [blk+bit, blk+2·bit) hold it, and
	// cell lo pairs with lo+bit. A strip pass reads the upper half and
	// writes the lower, an add pass the reverse — disjoint cells, so the
	// order within a pass is immaterial.
	for pass, prices := range [2][]float64{stripPrice, addPrice} {
		for b, price := range prices {
			bit := 1 << uint(b)
			from, to := bit, 0
			if pass == 1 {
				from, to = 0, bit
			}
			for blk := 0; blk < k.size; blk += 2 * bit {
				for lo := blk; lo < blk+bit; lo++ {
					x, y := lo+from, lo+to
					if v := val[x] + price; v < val[y] {
						val[y] = v
						org[y] = org[x]
					}
				}
			}
		}
	}
}

func (k *hyperKernel) relaxFull(prev, out []float64, from []int32, scr *latticeScratch) {
	k.sweep(prev, scr, false)
	for ti, li := range k.latIdx {
		stay := prev[ti]
		o := scr.org[li]
		if o < 0 || int(o) == ti {
			// Either nothing reaches t, or the identity won the lattice
			// (every genuine move costs at least stay + epsilon).
			out[ti] = stay
			if math.IsInf(stay, 1) {
				from[ti] = -1
			} else {
				from[ti] = int32(ti)
			}
			continue
		}
		if mv := scr.val[li] + changeEpsilon; mv < stay {
			out[ti] = mv
			from[ti] = o
		} else {
			out[ti] = stay
			from[ti] = int32(ti)
		}
	}
}

func (k *hyperKernel) relaxMove(prev, out []float64, from []int32, scr *latticeScratch) {
	k.sweep(prev, scr, false)
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
	k.sweep(w, scr, true)
	for ci, li := range k.latIdx {
		best := w[ci] // staying at c: zero transition, no epsilon
		if v := scr.val[li] + changeEpsilon; v < best {
			best = v
		}
		out[ci] = best
	}
	return nil
}
