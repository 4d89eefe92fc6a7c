package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"time"

	"dyndesign/internal/core"
	"dyndesign/internal/durable"
	"dyndesign/internal/workload"
)

// ingestRequest is the POST /ingest body: a single statement or a
// batch. Label optionally names the mix phase (segmentation snaps to
// label changes).
type ingestRequest struct {
	SQL        string            `json:"sql,omitempty"`
	Label      string            `json:"label,omitempty"`
	Statements []ingestStatement `json:"statements,omitempty"`
}

type ingestStatement struct {
	SQL   string `json:"sql"`
	Label string `json:"label,omitempty"`
}

type ingestResponse struct {
	Ingested int `json:"ingested"`
	Window   int `json:"window"`
	// Alerts is how many drift alerts this batch fired.
	Alerts int `json:"alerts"`
}

// handleIngest validates the whole batch first (parse + what-if
// costability), so a bad statement rejects the batch atomically, then
// commits it — one WAL frame, one fsync, n window entries, under one
// lock acquisition: applied whole or not at all — and feeds it through
// the drift alerter. A committed batch is ingested whatever becomes of
// the request: it is counted, observed without the request's
// cancellation (recovery would replay it into the alerter anyway) and
// acknowledged.
//
// Overload protection happens before any work: at most MaxInflight
// requests are processed concurrently — when the WAL (fsync) or the
// cost validation falls behind, excess requests are shed immediately
// with 429 + Retry-After rather than queued, so a stalled disk bounds
// memory instead of growing it. Bodies beyond MaxBody get 413.
func (s *service) handleIngest(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() { s.cfg.Hists.Observe("advisord_ingest_seconds", time.Since(start)) }()
	if s.inflight != nil {
		select {
		case s.inflight <- struct{}{}:
			defer func() { <-s.inflight }()
		default:
			s.shed.Add(1)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "ingest shedding load: %d requests already in flight", cap(s.inflight))
			return
		}
	}
	if s.cfg.MaxBody > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)
	}
	var req ingestRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.bodyTooLarge.Add(1)
			writeError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", tooBig.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "decoding body: %v", err)
		return
	}
	batch := req.Statements
	if req.SQL != "" {
		batch = append([]ingestStatement{{SQL: req.SQL, Label: req.Label}}, batch...)
	}
	if len(batch) == 0 {
		writeError(w, http.StatusBadRequest, "no statements")
		return
	}
	stmts := make([]workload.Statement, len(batch))
	for i, in := range batch {
		stmt, err := workload.NewStatement(in.SQL)
		if err == nil {
			err = s.admits(stmt)
		}
		if err != nil {
			s.rejected.Add(int64(len(batch)))
			writeError(w, http.StatusBadRequest, "statement %d (%q): %v", i, in.SQL, err)
			return
		}
		stmts[i] = stmt
	}
	winLen, err := s.commit(batch, stmts)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.ingested.Add(int64(len(stmts)))
	s.batches.Add(1)
	alerts, err := s.observe(context.WithoutCancel(r.Context()), stmts...)
	if err != nil {
		// Validation costed every statement already, so this is a broken
		// alerter, not a bad batch; the drift detector misses a statement.
		fmt.Fprintf(os.Stderr, "advisord: %v\n", err)
	}
	if s.cfg.MinSolve >= 0 && s.snap.Load() == nil && winLen >= s.cfg.MinSolve {
		s.requestSolve("initial")
	}
	if s.store != nil && s.cfg.SnapshotEvery > 0 &&
		s.sinceSnap.Add(int64(len(stmts))) >= int64(s.cfg.SnapshotEvery) {
		s.requestSnapshot()
	}
	writeJSON(w, http.StatusOK, ingestResponse{Ingested: len(stmts), Window: winLen, Alerts: alerts})
}

// admits reports why ingest refuses the parsed statement stmt, or nil.
// It is checked against the schema by costing it once under the empty
// configuration — the same check the advisor applies at problem build,
// surfaced at the ingest boundary instead. Recovery drops a snapshot
// statement this refuses, so the two keep one rule.
func (s *service) admits(stmt workload.Statement) error {
	_, err := s.adv.StatementCost(stmt, core.Config(0))
	return err
}

// commit makes a validated batch part of the stream and returns the
// window fill after it: the WAL frame and the window entries as one
// atomic step under mu — log order is window order, which is what makes
// snapshot + tail-replay reconstruct the exact ring, and the batch is
// durable (fsync policy permitting) before the window, and therefore any
// solve, can see it. A WAL error leaves the window as it was, and the log
// too when it comes before the frame's first byte (a closed store, an
// oversized frame). One that comes after — a short write, a failed fsync
// — may leave the unacknowledged frame in the log, wal_last_seq ahead of
// window_total by this one batch; the store then refuses every later
// append, so ingest answers 500 until a restart, which replays the frame
// if it is whole.
func (s *service) commit(batch []ingestStatement, stmts []workload.Statement) (int, error) {
	var logged []durable.Statement
	if s.store != nil {
		logged = make([]durable.Statement, len(stmts))
		for i, stmt := range stmts {
			logged[i] = durable.Statement{Label: batch[i].Label, SQL: stmt.SQL}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.store != nil {
		if _, err := s.store.AppendBatch(logged); err != nil {
			return 0, fmt.Errorf("wal: %w", err)
		}
	}
	for i, stmt := range stmts {
		s.win.Append(batch[i].Label, stmt)
	}
	return s.win.Len(), nil
}

// observe feeds statements already in the window — committed live, or
// replayed by recovery — through the drift alerter in log order and
// returns how many alerts fired. It goes on past a statement the alerter
// cannot cost and reports the first such error.
func (s *service) observe(ctx context.Context, stmts ...workload.Statement) (alerts int, first error) {
	for _, stmt := range stmts {
		alert, err := s.stream.Observe(ctx, stmt)
		if err != nil && first == nil {
			first = fmt.Errorf("alerter: %w", err)
		}
		if alert != nil {
			alerts++
		}
	}
	return alerts, first
}
