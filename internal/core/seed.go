package core

import (
	"math"
	"slices"
)

// seedState is one kept hypercube seed pass (hyperKernel.slide), retained
// on a SolveCache so that the next pass over a slid window recomputes
// only the stages the slide changed. Everything in it is read-only once
// the pass that made it returns: later passes share its rows by header.
type seedState struct {
	// configs and the kernel's lattice-ordered prices fix the stage
	// function; exec holds the EXEC rows the pass read, by reference.
	configs    []Config
	addL, drpL []float64
	exec       [][]float64
	// cost[i] is stage i's costs in lattice order, less stage i-1's
	// minimum, for the stages the state retains (retainsCost) and nil
	// for the others; parents[i] is stage i's parent row, for every
	// stage.
	cost    [][]float64
	parents [][]int32
	// base numbers the stages across slides: stage i of this state is
	// stage base+i of the first window the chain of kept passes began
	// with, so a stage keeps its cost row, or not, from slide to slide.
	base int
	// workers is how many workers the pass that made the state ran its
	// stages on, for the seqgraph.dp span: 2 when it went to the split
	// crew.
	workers int
}

// costEvery spaces the cost rows a kept pass retains: one stage in
// costEvery, and the last. A slide compares its rows with the retained
// ones only there, so it recomputes up to costEvery-1 stages past the
// first bit-match; in return a window retains a quarter of its cost rows
// (the parent rows, which every backtrack reads, are all kept).
const costEvery = 4

// retainsCost reports whether a kept pass over stages stages from base
// on keeps stage i's cost row.
func retainsCost(base, i, stages int) bool {
	return (base+i)%costEvery == 0 || i == stages-1
}

// align places a problem's stages, with their EXEC rows exec, in the
// retained window: the smallest h such that the problem's first overlap
// rows are the retained rows from h on, where overlap runs to the end of
// the shorter of the two. until is the last stage of the overlap whose
// retained cost row exists: a pass compares its rows with the retained
// ones before it and may take the retained rows up to it. ok is false
// when the candidate list or a price differs, or no head drop leaves a
// retained row after stage 0. The initial and final transitions need not
// match: stage 0 is always recomputed, and the final transition is read
// after the loop.
func (s *seedState) align(k *hyperKernel, exec [][]float64) (h, until int, ok bool) {
	if s == nil || !slices.Equal(s.configs, k.configs) || !bitsEqual(s.addL, k.addL) || !bitsEqual(s.drpL, k.drpL) {
		return 0, 0, false
	}
	for h = 0; h+1 < len(s.exec); h++ {
		overlap := min(len(s.exec)-h, len(exec))
		i := 0
		for i < overlap && sameRow(exec[i], s.exec[h+i]) {
			i++
		}
		if i < overlap {
			continue
		}
		for until = overlap - 1; until > 0 && s.cost[h+until] == nil; until-- {
		}
		return h, until, until > 0
	}
	return 0, 0, false
}

// sameRow reports whether two EXEC rows hold the same bits: the same
// backing array (a row store hands its rows out by reference, and a
// BatchCostModel row never changes while it is held), or equal contents.
func sameRow(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 || &a[0] == &b[0] {
		return true
	}
	return bitsEqual(a, b)
}

// bitsEqual reports whether two rows are equal bit for bit.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// rowMin is the smallest cost of a row, the first of equal ones: what
// readBack's running minimum over the same cells finds.
func rowMin(row []float64) float64 {
	lowest := math.Inf(1)
	for _, v := range row {
		if v < lowest {
			lowest = v
		}
	}
	return lowest
}
