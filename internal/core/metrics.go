package core

import (
	"sync/atomic"
	"time"
)

// Metrics collects lightweight solver instrumentation. A Metrics value
// is shared by pointer: copying a Problem (as the solvers and the
// experiment harness do freely) keeps accumulating into the same
// counters, and every method is safe for concurrent use. All methods
// tolerate a nil receiver, so instrumentation stays strictly opt-in.
type Metrics struct {
	matrixBuilds     atomic.Int64
	matrixBuildNanos atomic.Int64
	matrixReuses     atomic.Int64
	degradations     atomic.Int64
	cancellations    atomic.Int64
	recoveredPanics  atomic.Int64
	latticeOverflows atomic.Int64
	seedStagesReused atomic.Int64
	seedFullPasses   atomic.Int64
}

// Ledger is a point-in-time copy of a Metrics value.
type Ledger struct {
	// MatrixBuilds and MatrixBuildTime describe the dense EXEC/TRANS
	// cost tables evaluated against the problem's model; concurrent
	// builds accumulate their individual durations, so the time can
	// exceed elapsed wall time on multicore runs.
	MatrixBuilds    int64
	MatrixBuildTime time.Duration
	// MatrixReuses counts the table reads (solver fetches and cost
	// replays) the solve cache served without touching the model.
	MatrixReuses int64
	// Degradations, Cancellations and RecoveredPanics are the robustness
	// ledger: resilient rungs failed over (timeout, budget, fault, or
	// panic), solves aborted by their context (deadline, cancel, or a
	// tripped work budget), and panics converted to errors.
	Degradations    int64
	Cancellations   int64
	RecoveredPanics int64
	// LatticeOverflows counts solves whose additive-capable model had a
	// candidate span above the 20-bit hypercube ceiling and ran on the
	// dense all-pairs kernel instead: the "why did this solve get slow"
	// diagnostic SolvePartitioned exists to fix (see ErrLatticeTooLarge).
	LatticeOverflows int64
	// SeedStagesReused counts the seed-pass stages taken from the pass
	// retained on the problem's SolveCache instead of recomputed: a
	// one-segment slide recomputes a few head stages and the new one and
	// reuses the rest. SeedFullPasses counts the seed passes that reused
	// nothing although a retained pass existed — a different candidate
	// list, prices or EXEC rows (a world change), no bit-match before the
	// overlap ended, or a cancelled pass.
	SeedStagesReused int64
	SeedFullPasses   int64
}

// Snapshot copies the counters; a nil receiver reads as all zeros.
func (m *Metrics) Snapshot() Ledger {
	if m == nil {
		return Ledger{}
	}
	return Ledger{
		MatrixBuilds:     m.matrixBuilds.Load(),
		MatrixBuildTime:  time.Duration(m.matrixBuildNanos.Load()),
		MatrixReuses:     m.matrixReuses.Load(),
		Degradations:     m.degradations.Load(),
		Cancellations:    m.cancellations.Load(),
		RecoveredPanics:  m.recoveredPanics.Load(),
		LatticeOverflows: m.latticeOverflows.Load(),
		SeedStagesReused: m.seedStagesReused.Load(),
		SeedFullPasses:   m.seedFullPasses.Load(),
	}
}

// noteMatrixBuild records one dense cost-table evaluation.
func (m *Metrics) noteMatrixBuild(d time.Duration) {
	if m == nil {
		return
	}
	m.matrixBuilds.Add(1)
	m.matrixBuildNanos.Add(int64(d))
}

// noteMatrixReuse records one table read served from a SolveCache
// entry instead of re-evaluating the cost model — a solver's table
// fetch or a sequence-cost replay.
func (m *Metrics) noteMatrixReuse() {
	if m == nil {
		return
	}
	m.matrixReuses.Add(1)
}

// noteDegradation records one rung of the resilient supervisor failing
// over to the next rung of its ladder.
func (m *Metrics) noteDegradation() {
	if m == nil {
		return
	}
	m.degradations.Add(1)
}

// noteCancellation records one solve aborted by its context — a
// deadline, an explicit cancel, or a tripped work budget (which is
// delivered through context cancellation).
func (m *Metrics) noteCancellation() {
	if m == nil {
		return
	}
	m.cancellations.Add(1)
}

// noteRecoveredPanic records one panic recovered from a solver worker
// or a supervisor rung and converted into a typed error.
func (m *Metrics) noteRecoveredPanic() {
	if m == nil {
		return
	}
	m.recoveredPanics.Add(1)
}

// noteLatticeOverflow records one kernel resolution whose candidate
// span exceeded the hypercube lattice ceiling, forcing the dense
// O(n·c²) fallback (see ErrLatticeTooLarge).
func (m *Metrics) noteLatticeOverflow() {
	if m == nil {
		return
	}
	m.latticeOverflows.Add(1)
}

// noteSeedPass records one seed pass taken while a retained pass
// existed: the stages it reused, or a full pass when it reused none.
func (m *Metrics) noteSeedPass(reused int) {
	if m == nil {
		return
	}
	if reused > 0 {
		m.seedStagesReused.Add(int64(reused))
	} else {
		m.seedFullPasses.Add(1)
	}
}
