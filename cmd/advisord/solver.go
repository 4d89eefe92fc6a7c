package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"time"

	"dyndesign/internal/advisor"
	"dyndesign/internal/durable"
	"dyndesign/internal/explain"
	"dyndesign/internal/obs"
	"dyndesign/internal/workload"
)

// recordError is a WAL record recovery cannot replay: it no longer
// parses, or the drift alerter cannot price it — a statement ingest
// would refuse today. Recovery stops at it, the service does not start.
type recordError struct {
	Seq uint64
	Err error
}

func (e *recordError) Error() string { return fmt.Sprintf("advisord: WAL record %d: %v", e.Seq, e.Err) }
func (e *recordError) Unwrap() error { return e.Err }

// recover restores the service from the durable store: newest valid
// snapshot first, then the WAL tail — one record per statement, however
// the statements were framed on disk — replayed through the window and
// the drift alerter in original stream order (RecordReset markers
// reproduce tumbling epoch boundaries exactly). Cost-derived state — the
// last-known-good solution and the alerter's cost ring — is dropped
// when the table-statistics fingerprint changed since the snapshot:
// those numbers were computed in a dead cost world. The window and the
// installed design survive a fingerprint change; the installed indexes
// are physically there regardless of what statistics say.
func (s *service) recover() error {
	snap, tail, err := s.store.Recover()
	if err != nil {
		return err
	}
	if snap != nil {
		window, dropped := s.admissible(snap.Window)
		if err := s.win.RestoreState(window); err != nil {
			return fmt.Errorf("advisord: restoring window from snapshot seq %d: %w", snap.Seq, err)
		}
		s.installed = snap.Installed
		if err := s.stream.SetCurrent(s.installed); err != nil {
			return fmt.Errorf("advisord: snapshot's installed design is outside the design space (schema flags changed?): %w", err)
		}
		if snap.StatsFingerprint == s.adv.StatsFingerprint() {
			s.lkg = snap.LastKnownGood
			if snap.Alerter != nil {
				if err := s.stream.RestoreState(*snap.Alerter); err != nil {
					// Shape mismatch (alerter flags changed): the drift
					// detector starts cold, which only delays the next
					// alert — not worth failing recovery over.
					fmt.Fprintf(os.Stderr, "advisord: alerter state not restored (%v); drift detection starts cold\n", err)
				}
			}
		} else {
			s.worldMismatch = true
		}
		s.recoveredSnapSeq, s.recoveredDropped = snap.Seq, dropped
		if dropped > 0 {
			fmt.Fprintf(os.Stderr, "advisord: dropped %d snapshot statements that ingest refuses today\n", dropped)
		}
	}
	s.replaying = true
	defer func() { s.replaying = false }()
	for _, rec := range tail {
		switch rec.Kind {
		case durable.RecordReset:
			s.win.Reset()
		case durable.RecordStatement:
			stmt, err := workload.NewStatement(rec.SQL)
			if err != nil {
				return &recordError{rec.Seq, fmt.Errorf("no longer parses (data dir from another schema?): %w", err)}
			}
			s.win.Append(rec.Label, stmt)
			if _, err := s.observe(context.Background(), stmt); err != nil {
				return &recordError{rec.Seq, err}
			}
		}
	}
	s.recoveredReplay = len(tail)
	if len(tail) > 0 || snap != nil {
		st := s.store.Stats()
		fmt.Fprintf(os.Stderr, "advisord: recovered %d statements in window (snapshot seq %d + %d replayed records, %d torn bytes truncated)\n",
			s.win.Len(), s.recoveredSnapSeq, len(tail), st.TruncatedBytes)
	}
	return nil
}

// admissible returns the window state st without the statements that
// ingest refuses today (service.admits), and how many it dropped. A
// snapshot written before ingest, the plan compiler and the engine
// shared catalog.Table.CheckStatement can hold such a statement, and
// every solve would fail validation on it until it slid out of the
// window. Dropping it before the window is restored leaves what a ring
// that refused it at ingest would hold. A statement that no longer
// parses is kept: RestoreState refuses it, as WAL replay refuses such a
// record.
func (s *service) admissible(st workload.WindowState) (workload.WindowState, int) {
	kept := make([]workload.WindowStatement, 0, len(st.Statements))
	for _, ws := range st.Statements {
		if stmt, err := workload.NewStatement(ws.SQL); err == nil && s.admits(stmt) != nil {
			continue
		}
		kept = append(kept, ws)
	}
	dropped := len(st.Statements) - len(kept)
	st.Statements = kept
	return st, dropped
}

// requestSolve schedules a re-solve; a pending request absorbs it (the
// solve snapshots the window when it starts, so coalescing loses
// nothing).
func (s *service) requestSolve(reason string) {
	select {
	case s.trigger <- reason:
	default:
	}
}

// requestSnapshot schedules a durable snapshot on the solver goroutine;
// a pending request absorbs it.
func (s *service) requestSnapshot() {
	select {
	case s.snapCh <- struct{}{}:
	default:
	}
}

// run is the solver loop; it exits when ctx is cancelled. Exactly one
// run loop may be active — it is the single writer of the retained
// solver state, and the only goroutine that writes durable snapshots
// while the service is serving (close() writes the final one after
// this loop has exited, so the two can never overlap).
func (s *service) run(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		case reason := <-s.trigger:
			if _, err := s.solveOnce(ctx, reason); err != nil && ctx.Err() == nil {
				fmt.Fprintf(os.Stderr, "advisord: %s re-solve failed: %v\n", reason, err)
			}
		case respCh := <-s.forceCh:
			rec, err := s.solveOnce(ctx, "forced")
			respCh <- forcedSolve{rec: rec, err: err}
		case <-s.snapCh:
			s.writeDurableSnapshot()
		}
	}
}

// writeDurableSnapshot persists the current derived state. Must run on
// the solver goroutine (or after it has exited): installed and lkg are
// solver-owned. The window state and the WAL head are captured under
// mu, so the pair is exactly consistent; the alerter folds in
// statements slightly ahead of the window (ingest observes it after
// releasing mu), which replay tolerates — drift detection is a
// heuristic and re-observing a handful of tail statements only
// advances its ring.
func (s *service) writeDurableSnapshot() {
	if s.store == nil {
		return
	}
	s.mu.Lock()
	winState := s.win.State()
	seq := s.store.LastSeq()
	alertState := s.stream.State()
	s.mu.Unlock()
	snap := &durable.Snapshot{
		Seq:              seq,
		Window:           winState,
		Installed:        s.installed,
		LastKnownGood:    s.lkg,
		StatsFingerprint: s.adv.StatsFingerprint(),
		Alerter:          &alertState,
	}
	if err := s.store.WriteSnapshot(snap); err != nil {
		s.snapErrors.Add(1)
		fmt.Fprintf(os.Stderr, "advisord: snapshot failed: %v\n", err)
		return
	}
	s.sinceSnap.Store(0)
}

// close finishes the service after the solver loop has exited: it
// stops the calibrator — cancelling a replay in flight, which returns
// within one index build with the table's index set restored — then
// writes a final durable snapshot and releases the data directory.
// Callers must wait for run() to return first — that ordering is what
// guarantees the final snapshot never races a publishing solve, and that
// no publish reaches the calibrator after it has stopped.
func (s *service) close() error {
	if s.calibCancel != nil {
		s.calibCancel()
		<-s.calibDone
	}
	var first error
	if s.store != nil {
		s.writeDurableSnapshot()
		first = s.store.Close()
	}
	if err := s.lineage.close(); err != nil && first == nil {
		first = err
	}
	return first
}

// solveOnce snapshots the window, re-solves it warm-started from the
// retained memo and last-known-good solution, and
// publishes the new recommendation snapshot. It must only be called
// from the solver goroutine (or a test standing in for it).
//
// Every attempt — including failed ones — leaves a lineage record
// correlating the trigger, the stream slice consumed, the WAL cursor,
// the answering ladder rung and cache warmth. A successful solve ends
// in the order publish → durable snapshot → lineage record → hand-off:
// it returns with its answer served and recorded, and the calibrator
// replays the recommendation against the engine afterwards, amending the
// record when (and if) the replay finishes.
func (s *service) solveOnce(ctx context.Context, reason string) (*advisor.Recommendation, error) {
	if s.solveHook != nil {
		s.solveHook(reason)
	}
	s.mu.Lock()
	w := s.win.Snapshot()
	seq := s.win.Seq()
	total := s.win.Total()
	var walSeq uint64
	if s.store != nil {
		walSeq = s.store.LastSeq()
	}
	if s.cfg.Tumbling && s.win.Len() > 0 {
		// The epoch boundary is logged BEFORE the in-memory reset: if we
		// die between the two, replay resets a window the service never
		// emptied — the same window the next solve would have seen anyway
		// — rather than resurrecting statements a solve already consumed.
		if s.store != nil {
			if _, err := s.store.AppendReset(); err != nil {
				s.mu.Unlock()
				return nil, fmt.Errorf("logging window reset: %w", err)
			}
		}
		s.win.Reset()
	}
	s.mu.Unlock()
	if w.Len() == 0 {
		return nil, nil
	}
	id := s.lineage.nextSolveID()
	sp := s.cfg.Tracer.Start("advisord.solve")
	lrec := solveRecord{
		SolveID:     id,
		Reason:      reason,
		SolvedAt:    time.Now().UTC(),
		Window:      w.Name,
		WindowSeq:   seq,
		WindowStart: total - int64(w.Len()),
		WindowEnd:   total,
		WALLastSeq:  walSeq,
		DriftAlerts: s.driftAlerts.Load(),
		Strategy:    string(s.cfg.Strategy),
		K:           s.cfg.K,
	}
	finish := func(err error) {
		if err != nil {
			lrec.Error = err.Error()
		}
		s.lineage.record(lrec)
		sp.End(
			obs.Int("solve_id", int64(id)),
			obs.String("reason", reason),
			obs.String("rung", lrec.Rung),
			obs.Bool("degraded", lrec.Degraded),
			obs.Float("cost", lrec.Cost),
			obs.Float("gap", lrec.Gap),
			obs.Int("window_end", lrec.WindowEnd),
			obs.Bool("err", err != nil),
		)
	}
	opts := advisor.Options{
		K:             s.cfg.K,
		Strategy:      s.cfg.Strategy,
		SegmentSize:   s.cfg.SegmentSize,
		Initial:       s.installed,
		Timeout:       s.cfg.Timeout,
		Fallback:      s.cfg.Fallback,
		LastKnownGood: s.lkg,
		Parallelism:   s.cfg.Parallelism,
		Memo:          s.memo,
		Tracer:        s.cfg.Tracer,
	}
	start := time.Now()
	rec, err := s.adv.RecommendContext(ctx, w, opts)
	elapsed := time.Since(start)
	lrec.SolveMillis = float64(elapsed.Microseconds()) / 1000
	s.cfg.Hists.Observe("advisord_solve_seconds", elapsed)
	if err != nil {
		s.solveErrors.Add(1)
		finish(err)
		return rec, err
	}
	sol := rec.Solution
	lrec.solveOutcome = solveOutcome{string(rec.Rung), rec.Degraded, sol.Cost, sol.ExecCost, sol.TransCost, sol.Changes, sol.Gap}
	lrec.solveStats = solveStats{rec.Stats.WhatIfCalls, rec.Stats.HitRate(), rec.MatrixBuilds, rec.MatrixReuses, rec.LatticeOverflows, rec.Stats}
	var expl *explain.Explanation
	if s.cfg.Explain {
		// Attribution only: the sweep and the audit re-solve the
		// problem many times over — too heavy for every window.
		expl, err = s.adv.Explain(ctx, rec, advisor.ExplainOptions{KSweepDelta: -1, AuditTrials: -1})
		if err != nil {
			expl = nil // the recommendation stands; provenance is best-effort
		}
	}
	body, err := json.Marshal(buildResponse(rec, &lrec, expl))
	if err != nil {
		s.solveErrors.Add(1)
		finish(err)
		return rec, err
	}
	s.lkg = sol
	s.installed = sol.Designs[len(sol.Designs)-1]
	if err := s.stream.SetCurrent(s.installed); err != nil {
		finish(err)
		return rec, err
	}
	s.snap.Store(&snapshot{body: body, at: time.Now()})
	s.resolves.Add(1)
	// Persist the new design chain immediately: the installed config is
	// the next solve's C0, so losing it would change every later answer.
	s.writeDurableSnapshot()
	finish(nil)
	if s.cfg.CalibSamples > 0 {
		s.submitCalibration(calibJob{rec: rec, id: id})
	}
	return rec, nil
}

// forcedSolve is the solver goroutine's answer to a POST /solve.
type forcedSolve struct {
	rec *advisor.Recommendation
	err error
}

// handleSolve forces a synchronous re-solve: the request blocks until
// the solver goroutine has solved the current window and published the
// result, then returns that recommendation body. An empty window yields
// 409. This is the deterministic solve point the crash harness drives —
// and an operator's "recommend now" button.
func (s *service) handleSolve(w http.ResponseWriter, r *http.Request) {
	respCh := make(chan forcedSolve, 1)
	select {
	case s.forceCh <- respCh:
	case <-r.Context().Done():
		writeError(w, http.StatusServiceUnavailable, "solver unavailable: %v", r.Context().Err())
		return
	}
	select {
	case res := <-respCh:
		if res.err != nil {
			writeError(w, http.StatusInternalServerError, "solve: %v", res.err)
			return
		}
		if res.rec == nil {
			writeError(w, http.StatusConflict, "window is empty; ingest statements first")
			return
		}
		s.snap.Load().serve(w)
	case <-r.Context().Done():
		writeError(w, http.StatusServiceUnavailable, "solve abandoned: %v", r.Context().Err())
	}
}
