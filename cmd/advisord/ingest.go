package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"dyndesign/internal/alerter"
	"dyndesign/internal/core"
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
// logs each statement to the WAL and feeds it through the window and
// the drift alerter.
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
			// Validate against the schema by costing it once under the
			// empty configuration — the same check the advisor applies
			// at problem build, surfaced at the ingest boundary instead.
			_, err = s.adv.StatementCost(stmt, core.Config(0))
		}
		if err != nil {
			s.rejected.Add(int64(len(batch)))
			writeError(w, http.StatusBadRequest, "statement %d (%q): %v", i, in.SQL, err)
			return
		}
		stmts[i] = stmt
	}
	alerts := 0
	for i, stmt := range stmts {
		alert, err := s.apply(r.Context(), batch[i].Label, stmt)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		if alert != nil {
			alerts++
		}
	}
	s.ingested.Add(int64(len(stmts)))
	s.batches.Add(1)
	s.mu.Lock()
	winLen := s.win.Len()
	s.mu.Unlock()
	if s.cfg.MinSolve >= 0 && s.snap.Load() == nil && winLen >= s.cfg.MinSolve {
		s.requestSolve("initial")
	}
	if s.store != nil && s.cfg.SnapshotEvery > 0 &&
		s.sinceSnap.Add(int64(len(stmts))) >= int64(s.cfg.SnapshotEvery) {
		s.requestSnapshot()
	}
	writeJSON(w, http.StatusOK, ingestResponse{Ingested: len(stmts), Window: winLen, Alerts: alerts})
}

// apply folds one validated statement into the service, live or during
// recovery: WAL append and window append as one atomic step under mu —
// log order is window order, which is what makes snapshot + tail-replay
// reconstruct the exact ring, and the statement is durable (fsync
// policy permitting) before the window, and therefore any solve, can
// see it — then the drift alerter. Replayed statements are already in
// the log and are not appended again.
func (s *service) apply(ctx context.Context, label string, stmt workload.Statement) (*alerter.Alert, error) {
	s.mu.Lock()
	if s.store != nil && !s.replaying {
		if _, err := s.store.AppendStatement(label, stmt.SQL); err != nil {
			s.mu.Unlock()
			return nil, fmt.Errorf("wal: %w", err)
		}
	}
	s.win.Append(label, stmt)
	s.mu.Unlock()
	alert, err := s.stream.Observe(ctx, stmt)
	if err != nil {
		return nil, fmt.Errorf("alerter: %w", err)
	}
	return alert, nil
}
