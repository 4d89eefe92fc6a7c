package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"dyndesign/internal/advisor"
	"dyndesign/internal/calib"
)

// lineageCap bounds the in-memory solve history served by GET /solves.
// The JSONL audit file (when configured) is unbounded: it is the
// durable record, the ring is the operator's quick view.
const lineageCap = 64

// solveRecord is the decision lineage of one solve attempt: everything
// needed to answer "why is this design installed" after the fact —
// which trigger fired, what slice of the stream the solver saw, which
// ladder rung answered, what it cost, how warm the caches were, and
// how well the cost model that justified it calibrated against the
// engine. One record is emitted per solve attempt, including failed
// ones (Error set, cost fields zero).
type solveRecord struct {
	// SolveID numbers solve attempts within this process, starting at 1.
	SolveID  uint64    `json:"solve_id"`
	Reason   string    `json:"reason"`
	SolvedAt time.Time `json:"solved_at"`
	// SolveMillis is the solver wall time (excludes explain, publish,
	// and calibration).
	SolveMillis float64 `json:"solve_millis"`

	// Window provenance: the solve consumed stream ordinals
	// [WindowStart, WindowEnd) — WindowEnd is the ingest cursor (total
	// statements ever accepted) at solve time, the same number /healthz
	// reports as window_total. WindowSeq is the window mutation counter
	// the published snapshot carries.
	Window      string `json:"window"`
	WindowSeq   uint64 `json:"window_seq"`
	WindowStart int64  `json:"window_start"`
	WindowEnd   int64  `json:"window_end"`
	// WALLastSeq is the last durable WAL sequence at solve time (0
	// without a data dir): the replay cursor this decision is pinned to.
	WALLastSeq uint64 `json:"wal_last_seq,omitempty"`
	// DriftAlerts is the lifetime alert count when the solve started —
	// correlating a record to the alert that triggered it.
	DriftAlerts int64 `json:"drift_alerts"`

	// The requested strategy and change bound, then what came back: the
	// answering rung and objective, and how much of the answer came from
	// retained state rather than fresh what-if calls.
	Strategy string `json:"strategy,omitempty"`
	K        int    `json:"k,omitempty"`
	solveOutcome
	solveStats

	// Error is set on failed attempts; outcome and stats are then zero.
	Error string `json:"error,omitempty"`

	// Calibration summarizes the measured-vs-estimated replay of this
	// recommendation. The replay runs after the record has landed, so the
	// summary arrives late (lineage.amend); it stays nil when calibration
	// is disabled, the replay failed, or a newer publish superseded the
	// replay before it started.
	Calibration *calibSummary `json:"calibration,omitempty"`
}

// calibFollowUp is the audit line a finished replay appends: the solve's
// own line was written at publication and is never rewritten.
type calibFollowUp struct {
	SolveID     uint64        `json:"solve_id"`
	Calibration *calibSummary `json:"calibration"`
}

// solveOutcome is what a solve answered and solveStats what the answer
// cost to compute. Both are filled once from the Recommendation: the
// lineage record embeds them, /recommendation serves the same values
// (the stats as "stats"), and the last-solve metrics read them off the
// newest record.
type solveOutcome struct {
	// Rung is the ladder rung that actually answered.
	Rung      string  `json:"rung"`
	Degraded  bool    `json:"degraded"`
	Cost      float64 `json:"cost"`
	ExecCost  float64 `json:"exec_cost"`
	TransCost float64 `json:"trans_cost"`
	Changes   int     `json:"changes"`
	// Gap is the anytime optimality gap: 0 when the answering solver
	// was exact, positive when a beam-pruned partitioned solve stopped
	// early (the optimum is then within [cost-gap, cost]).
	Gap float64 `json:"gap"`
}

type solveStats struct {
	WhatIfCalls      int64   `json:"whatif_calls"`
	MemoHitRate      float64 `json:"memo_hit_rate"`
	MatrixBuilds     int64   `json:"matrix_builds"`
	MatrixReuses     int64   `json:"matrix_reuses"`
	LatticeOverflows int64   `json:"lattice_overflows,omitempty"`
	// cost is not serialized: the plan-table metrics read it.
	cost advisor.CostStats
}

// calibSummary is the per-solve slice of a calibration run, embedded in
// the lineage record (the streaming aggregates live at GET /calibration).
type calibSummary struct {
	Samples        int     `json:"samples"`
	SkippedDML     int     `json:"skipped_dml"`
	Errors         int     `json:"errors"`
	Transitions    int     `json:"transitions"`
	MedianAbsRatio float64 `json:"median_abs_ratio"`
	MeanSignedLog2 float64 `json:"mean_signed_log2"`
	WallMillis     float64 `json:"wall_millis"`
}

func summarizeCalibration(rep *calib.RunReport) *calibSummary {
	if rep == nil {
		return nil
	}
	return &calibSummary{
		Samples:        len(rep.Samples),
		SkippedDML:     rep.SkippedDML,
		Errors:         rep.Errors,
		Transitions:    rep.Transitions,
		MedianAbsRatio: rep.MedianAbsRatio(),
		MeanSignedLog2: rep.MeanSignedLog2(),
		WallMillis:     float64(rep.Wall.Microseconds()) / 1000,
	}
}

// lineage is the solve history: a bounded ring for GET /solves plus an
// optional append-only JSONL audit file that survives the ring (and the
// process). Records arrive from the single solver goroutine, amendments
// from the calibrator; readers are arbitrary HTTP goroutines, hence the
// mutex.
type lineage struct {
	mu     sync.Mutex
	nextID uint64
	recs   []solveRecord
	audit  *os.File
	// auditErrors counts JSONL writes that failed; the ring keeps the
	// record either way.
	auditErrors int64
}

// newLineage opens the audit sink (appending to an existing file, so
// restarts extend the history rather than truncate it). An empty path
// keeps lineage in-memory only.
func newLineage(auditPath string) (*lineage, error) {
	l := &lineage{}
	if auditPath != "" {
		f, err := os.OpenFile(auditPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("advisord: opening solve audit log: %w", err)
		}
		l.audit = f
	}
	return l, nil
}

// nextSolveID hands out the next attempt number.
func (l *lineage) nextSolveID() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextID++
	return l.nextID
}

// record appends to the ring (evicting the oldest past lineageCap) and
// the audit file. Audit failures are counted, not fatal: losing a
// lineage line must never take down the solve path that produced it.
func (l *lineage) record(rec solveRecord) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.recs = append(l.recs, rec)
	if len(l.recs) > lineageCap {
		l.recs = l.recs[len(l.recs)-lineageCap:]
	}
	l.appendAudit(rec)
}

// amend attaches a finished replay's summary to solve id's ring entry,
// if the ring still retains it, and appends one follow-up line to the
// audit log.
func (l *lineage) amend(id uint64, cal *calibSummary) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := len(l.recs) - 1; i >= 0; i-- {
		if l.recs[i].SolveID == id {
			l.recs[i].Calibration = cal
			break
		}
	}
	l.appendAudit(calibFollowUp{SolveID: id, Calibration: cal})
}

// appendAudit writes one JSON line to the audit file; without one (none
// configured, or already closed) it does nothing. Called with mu held.
func (l *lineage) appendAudit(v any) {
	if l.audit == nil {
		return
	}
	line, err := json.Marshal(v)
	if err == nil {
		line = append(line, '\n')
		_, err = l.audit.Write(line)
	}
	if err != nil {
		l.auditErrors++
		fmt.Fprintf(os.Stderr, "advisord: solve audit append failed: %v\n", err)
	}
}

// list returns the retained records newest-first, plus the count of
// audit lines that failed to persist.
func (l *lineage) list() ([]solveRecord, int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]solveRecord, len(l.recs))
	for i, r := range l.recs {
		out[len(out)-1-i] = r
	}
	return out, l.auditErrors
}

// newest returns the latest retained attempt and the latest one that
// published a recommendation (SolveID 0 = none yet): the source of the
// "last solve" metrics. A record lands when its attempt finishes — for a
// published solve, at publication.
func (l *lineage) newest() (attempt, published solveRecord) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := len(l.recs) - 1; i >= 0 && published.SolveID == 0; i-- {
		if attempt.SolveID == 0 {
			attempt = l.recs[i]
		}
		if l.recs[i].Error == "" {
			published = l.recs[i]
		}
	}
	return attempt, published
}

func (l *lineage) close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.audit == nil {
		return nil
	}
	err := l.audit.Close()
	l.audit = nil
	return err
}
