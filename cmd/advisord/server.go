package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"dyndesign/internal/advisor"
	"dyndesign/internal/alerter"
	"dyndesign/internal/calib"
	"dyndesign/internal/core"
	"dyndesign/internal/durable"
	"dyndesign/internal/explain"
	"dyndesign/internal/obs"
	"dyndesign/internal/workload"
)

// serviceConfig gathers everything the service needs beyond the advisor
// itself. Zero values get sensible service defaults in newService.
type serviceConfig struct {
	// WindowCap is the sliding-window capacity in statements.
	WindowCap int
	// Tumbling resets the window at every re-solve (epoch semantics)
	// instead of sliding it.
	Tumbling bool
	// MinSolve is the window fill that triggers the first solve; before
	// it the service ingests without recommending. Negative disables
	// automatic solves entirely: recommendations are produced only on
	// demand via POST /solve (the crash harness relies on this for
	// deterministic solve points).
	MinSolve int

	// Store persists the statement stream (WAL) and derived state
	// (snapshots) across crashes; nil runs the service in-memory only.
	Store *durable.Store
	// SnapshotEvery writes a durable snapshot after every N accepted
	// statements in addition to the one after each published solve
	// (0 = solve-time snapshots only).
	SnapshotEvery int
	// MaxInflight bounds concurrently processed /ingest requests; excess
	// requests are shed with 429 + Retry-After instead of queueing
	// (default 64; negative = unbounded).
	MaxInflight int
	// MaxBody caps request bodies in bytes; larger bodies get 413
	// (default 1 MiB; negative = unlimited).
	MaxBody int64
	// MemoCap bounds the retained what-if memo (cells; 0 = unbounded).
	MemoCap int

	// K, Strategy, SegmentSize, Timeout, Fallback, and Parallelism
	// configure every window solve (see advisor.Options). Final is
	// never constrained: the stream continues past the window.
	K           int
	Strategy    core.Strategy
	SegmentSize int
	Timeout     time.Duration
	Fallback    bool
	Parallelism int

	// Explain attaches per-transition cost attribution to each
	// recommendation (sweep and audit stay off — they re-solve).
	Explain bool

	// CalibSamples replays this many sampled window statements against
	// the live engine after every published solve, pairing measured page
	// accesses with the what-if estimates that justified the
	// recommendation (0 = calibration off; the solve path then runs
	// byte-for-byte as before). Calibration runs strictly after the
	// recommendation is published, on the solver goroutine, so it delays
	// the next solve but never the current answer.
	CalibSamples int
	// CalibSeed drives the deterministic calibration sampling.
	CalibSeed int64
	// AuditPath appends one JSON line of decision lineage per solve
	// attempt (empty = in-memory ring only; see GET /solves).
	AuditPath string

	// Alerter tunes drift detection over the ingest stream.
	Alerter alerter.Options

	Tracer *obs.Tracer
	Gauges *obs.GaugeSet
	// Hists receives the advisord_ingest_seconds / advisord_solve_seconds
	// latency distributions (nil = not recorded).
	Hists *obs.HistogramSet
}

// snapshot is one published recommendation: the pre-marshaled response
// body plus the window mutation counter it was solved at. Snapshots are
// immutable after publication and swapped atomically, so any number of
// concurrent /recommendation readers see a consistent last-known-good
// answer while the next solve is in flight.
type snapshot struct {
	seq  uint64
	body []byte
	// at is the publication instant, backing the
	// advisord_recommendation_age_seconds gauge. It lives beside the
	// body, not in it, so publication metadata never perturbs the
	// recommendation bytes a reader gets.
	at time.Time
}

// service is the long-running advisor: it owns the statement window,
// the drift alerter, the retained what-if row store, and the
// last-known-good recommendation snapshot.
//
// Concurrency model: ingest handlers run on arbitrary HTTP goroutines
// and serialize window mutation behind mu (the alerter serializes
// itself inside alerter.Stream). Solves run on exactly ONE goroutine —
// the run loop draining the trigger channel — which is what the shared
// memo requires; installed and lkg are touched only there. Readers
// never block on either: they load the atomic snapshot.
type service struct {
	adv    *advisor.Advisor
	stream *alerter.Stream
	cfg    serviceConfig

	mu  sync.Mutex // guards win
	win *workload.Window

	memo *advisor.ExecMemo

	// Solver-goroutine state: the installed design (C0 of the next
	// solve) and the last good solution (the resilient ladder's final
	// rung for the next one).
	installed core.Config
	lkg       *core.Solution

	snap    atomic.Pointer[snapshot]
	trigger chan string // buffered(1): pending re-solves coalesce

	// store is the durable WAL + snapshot directory (nil = in-memory).
	// WAL appends happen under mu together with the window mutation, so
	// log order always equals window order.
	store *durable.Store
	// snapCh requests a durable snapshot from the solver goroutine
	// (buffered(1): pending requests coalesce like solve triggers).
	snapCh chan struct{}
	// forceCh carries synchronous POST /solve requests to the solver
	// goroutine, which owns all solver state.
	forceCh chan chan forcedSolve
	// inflight is the ingest admission semaphore; nil means unbounded.
	inflight chan struct{}
	// replaying suppresses drift-alert side effects while the WAL tail
	// is re-observed during recovery (set only before serving starts).
	replaying bool
	// solveHook, when non-nil, runs at the start of every solve attempt
	// — the test seam for holding a solve in flight.
	solveHook func(reason string)

	// lineage is the per-solve decision history: ring for GET /solves,
	// JSONL audit sink when configured. calibMon folds every
	// calibration run into the streaming error statistics GET
	// /calibration serves.
	lineage  *lineage
	calibMon *calib.Monitor

	// Recovery facts, fixed before serving starts.
	recoveredSnapSeq uint64
	recoveredReplay  int
	worldMismatch    bool

	ingested     atomic.Int64
	batches      atomic.Int64
	rejected     atomic.Int64
	shed         atomic.Int64
	bodyTooLarge atomic.Int64
	sinceSnap    atomic.Int64
	driftAlerts  atomic.Int64
	resolves     atomic.Int64
	solveErrors  atomic.Int64
	snapErrors   atomic.Int64
	calibErrors  atomic.Int64
}

// forcedSolve is the solver goroutine's answer to a POST /solve.
type forcedSolve struct {
	rec *advisor.Recommendation
	err error
}

// newService wires the window, drift alerter, and retained caches over
// an advisor, then — when a durable store is configured — recovers the
// persisted state before the service takes traffic. The advisor's
// design space must use an explicit Configs list (the alerter watches
// it).
func newService(adv *advisor.Advisor, cfg serviceConfig) (*service, error) {
	if cfg.WindowCap <= 0 {
		cfg.WindowCap = 500
	}
	if cfg.MinSolve == 0 {
		cfg.MinSolve = 25
	}
	if cfg.MinSolve > cfg.WindowCap {
		cfg.MinSolve = cfg.WindowCap
	}
	if cfg.Strategy == "" {
		cfg.Strategy = core.StrategyKAware
	}
	if cfg.MaxInflight == 0 {
		cfg.MaxInflight = 64
	}
	if cfg.MaxBody == 0 {
		cfg.MaxBody = 1 << 20
	}
	configs := adv.Space().Configs
	if configs == nil {
		return nil, fmt.Errorf("advisord: design space needs an explicit configuration list")
	}
	win, err := workload.NewWindow("live", cfg.WindowCap)
	if err != nil {
		return nil, err
	}
	lin, err := newLineage(cfg.AuditPath)
	if err != nil {
		return nil, err
	}
	s := &service{
		adv:      adv,
		cfg:      cfg,
		win:      win,
		memo:     advisor.NewMemo(cfg.MemoCap),
		trigger:  make(chan string, 1),
		store:    cfg.Store,
		snapCh:   make(chan struct{}, 1),
		forceCh:  make(chan chan forcedSolve),
		lineage:  lin,
		calibMon: calib.NewMonitor(),
	}
	if cfg.MaxInflight > 0 {
		s.inflight = make(chan struct{}, cfg.MaxInflight)
	}
	a, err := alerter.New(adv, configs, core.Config(0), cfg.Alerter)
	if err != nil {
		return nil, err
	}
	// The drift hookup: an alert — not a timer — schedules the re-solve.
	// During WAL replay the stream re-observes statements whose alerts
	// (if any) already fired in the previous life; they are dropped.
	s.stream = alerter.NewStream(a, func(alerter.Alert) {
		if s.replaying {
			return
		}
		s.driftAlerts.Add(1)
		s.requestSolve("drift")
	})
	if s.store != nil {
		if err := s.recover(); err != nil {
			return nil, err
		}
	}
	s.helpGauges()
	s.publishRecoveryGauges()
	if g := cfg.Gauges; g != nil {
		// The age gauge is a function: every scrape recomputes now−publish
		// without the service having to refresh anything. NaN (suppressed
		// from the exposition) until the first recommendation lands.
		g.Func("advisord_recommendation_age_seconds", func() float64 {
			sn := s.snap.Load()
			if sn == nil || sn.at.IsZero() {
				return math.NaN()
			}
			return time.Since(sn.at).Seconds()
		})
	}
	if h := cfg.Hists; h != nil {
		h.Help("advisord_ingest_seconds", "POST /ingest handler latency, including WAL append and drift-alerter observation.")
		h.Help("advisord_solve_seconds", "Window re-solve latency (solver only; explain, publish, and calibration excluded).")
	}
	return s, nil
}

// recover restores the service from the durable store: newest valid
// snapshot first, then the WAL tail replayed through the window and the
// drift alerter in original stream order (RecordReset markers reproduce
// tumbling epoch boundaries exactly). Cost-derived state — the
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
		if err := s.win.RestoreState(snap.Window); err != nil {
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
		s.recoveredSnapSeq = snap.Seq
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
				return fmt.Errorf("advisord: WAL record %d no longer parses (data dir from another schema?): %w", rec.Seq, err)
			}
			s.win.Append(rec.Label, stmt)
			if _, err := s.stream.Observe(context.Background(), stmt); err != nil {
				return fmt.Errorf("advisord: replaying WAL record %d through the alerter: %w", rec.Seq, err)
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
// writes a final durable snapshot and releases the data directory.
// Callers must wait for run() to return first — that ordering is what
// guarantees the final snapshot never races a publishing solve.
func (s *service) close() error {
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
// the answering ladder rung, cache warmth, and (when enabled) the
// calibration of the cost model that justified the answer. Calibration
// runs strictly AFTER publication: the fresh recommendation is already
// serving while its replay measures the engine.
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
		K:           s.cfg.K,
		Strategy:    s.cfg.Strategy,
		SegmentSize: s.cfg.SegmentSize,
		Initial:     s.installed,
		Timeout:     s.cfg.Timeout,
		Fallback:    s.cfg.Fallback,
		Parallelism: s.cfg.Parallelism,
		Memo:        s.memo,
		Tracer:      s.cfg.Tracer,
	}
	if s.cfg.Fallback {
		opts.LastKnownGood = s.lkg
	}
	start := time.Now()
	rec, err := s.adv.RecommendContext(ctx, w, opts)
	elapsed := time.Since(start)
	lrec.SolveMillis = float64(elapsed.Microseconds()) / 1000
	s.cfg.Hists.Observe("advisord_solve_seconds", elapsed)
	if err != nil {
		s.solveErrors.Add(1)
		s.publishGauges(nil, elapsed)
		finish(err)
		return rec, err
	}
	lrec.Rung = string(rec.Rung)
	lrec.Degraded = rec.Degraded
	lrec.Cost = rec.Solution.Cost
	lrec.ExecCost = rec.Solution.ExecCost
	lrec.TransCost = rec.Solution.TransCost
	lrec.Changes = rec.Solution.Changes
	lrec.Gap = rec.Gap
	lrec.WhatIfCalls = rec.Stats.WhatIfCalls
	lrec.MemoHitRate = rec.Stats.HitRate()
	lrec.MatrixBuilds = rec.MatrixBuilds
	lrec.MatrixReuses = rec.MatrixReuses
	lrec.LatticeOverflows = rec.LatticeOverflows
	var expl *explain.Explanation
	if s.cfg.Explain {
		// Attribution only: the sweep and the audit re-solve the
		// problem many times over — too heavy for every window.
		expl, err = s.adv.Explain(ctx, rec, advisor.ExplainOptions{KSweepDelta: -1, AuditTrials: -1})
		if err != nil {
			expl = nil // the recommendation stands; provenance is best-effort
		}
	}
	body, err := json.Marshal(buildResponse(rec, expl, reason, seq, elapsed))
	if err != nil {
		s.solveErrors.Add(1)
		finish(err)
		return rec, err
	}
	s.lkg = rec.Solution
	s.installed = rec.Solution.Designs[len(rec.Solution.Designs)-1]
	if err := s.stream.SetCurrent(s.installed); err != nil {
		finish(err)
		return rec, err
	}
	s.snap.Store(&snapshot{seq: seq, body: body, at: time.Now()})
	s.resolves.Add(1)
	// Persist the new design chain immediately: the installed config is
	// the next solve's C0, so losing it would change every later answer.
	s.writeDurableSnapshot()
	s.publishGauges(rec, elapsed)
	if s.cfg.CalibSamples > 0 {
		// Vary the sampling by solve id (deterministically) so
		// consecutive solves over a slow-moving window don't measure the
		// same statements — the drift trend needs fresh draws.
		crep, cerr := s.adv.Calibrate(rec, advisor.CalibrateOptions{
			Samples: s.cfg.CalibSamples,
			Seed:    s.cfg.CalibSeed + int64(id),
			Monitor: s.calibMon,
		})
		if cerr != nil {
			s.calibErrors.Add(1)
			fmt.Fprintf(os.Stderr, "advisord: calibration after solve %d failed: %v\n", id, cerr)
		} else {
			lrec.Calibration = summarizeCalibration(crep)
		}
		s.publishCalibGauges()
	}
	finish(nil)
	return rec, nil
}

// --- HTTP surface ------------------------------------------------------

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

func (s *service) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/ingest", s.handleIngest)
	mux.HandleFunc("/solve", s.handleSolve)
	mux.HandleFunc("/recommendation", s.handleRecommendation)
	mux.HandleFunc("/solves", s.handleSolves)
	mux.HandleFunc("/calibration", s.handleCalibration)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
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
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
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
		// WAL append and window append are one atomic step under mu:
		// log order is window order, which is what makes snapshot +
		// tail-replay reconstruct the exact ring. The statement is
		// durable (fsync policy permitting) before the window — and
		// therefore any solve — can see it.
		s.mu.Lock()
		if s.store != nil {
			if _, err := s.store.AppendStatement(batch[i].Label, batch[i].SQL); err != nil {
				s.mu.Unlock()
				writeError(w, http.StatusInternalServerError, "wal: %v", err)
				return
			}
		}
		s.win.Append(batch[i].Label, stmt)
		s.mu.Unlock()
		alert, err := s.stream.Observe(r.Context(), stmt)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "alerter: %v", err)
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
	s.publishIngestGauges()
	writeJSON(w, http.StatusOK, ingestResponse{Ingested: len(stmts), Window: winLen, Alerts: alerts})
}

// handleSolve forces a synchronous re-solve: the request blocks until
// the solver goroutine has solved the current window and published the
// result, then returns that recommendation body. An empty window yields
// 409. This is the deterministic solve point the crash harness drives —
// and an operator's "recommend now" button.
func (s *service) handleSolve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
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
		snap := s.snap.Load()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(snap.body)
	case <-r.Context().Done():
		writeError(w, http.StatusServiceUnavailable, "solve abandoned: %v", r.Context().Err())
	}
}

// handleRecommendation serves the last published snapshot verbatim. The
// body was marshaled at publication, so concurrent readers get a
// consistent recommendation even while a re-solve is swapping it.
func (s *service) handleRecommendation(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	snap := s.snap.Load()
	if snap == nil {
		writeError(w, http.StatusServiceUnavailable, "no recommendation yet (window below %d statements or first solve pending)", s.cfg.MinSolve)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(snap.body)
}

// solvesResponse is the GET /solves body: the retained decision lineage,
// newest first. The JSONL audit file (when a data dir is configured)
// holds the complete history beyond the ring.
type solvesResponse struct {
	Count       int           `json:"count"`
	AuditErrors int64         `json:"audit_errors,omitempty"`
	Solves      []solveRecord `json:"solves"`
}

// handleSolves serves the per-solve lineage ring.
func (s *service) handleSolves(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	recs, auditErrs := s.lineage.list()
	writeJSON(w, http.StatusOK, solvesResponse{Count: len(recs), AuditErrors: auditErrs, Solves: recs})
}

// calibrationResponse is the GET /calibration body: the monitor's
// streaming error statistics over every calibration run so far.
type calibrationResponse struct {
	// Enabled is false when the service was started without calibration
	// (-calib-samples 0); the report is then all zeros.
	Enabled bool `json:"enabled"`
	// SamplesPerSolve is the configured replay budget per published solve.
	SamplesPerSolve int `json:"samples_per_solve"`
	// CalibrationErrors counts replay runs that failed outright.
	CalibrationErrors int64 `json:"calibration_errors"`
	// Report is the streaming aggregate: overall and per-class /
	// per-structure error statistics plus the drift-over-windows trend.
	Report calib.Report `json:"report"`
}

// handleCalibration serves the cost-model calibration report.
func (s *service) handleCalibration(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, calibrationResponse{
		Enabled:           s.cfg.CalibSamples > 0,
		SamplesPerSolve:   s.cfg.CalibSamples,
		CalibrationErrors: s.calibErrors.Load(),
		Report:            s.calibMon.Report(),
	})
}

// healthzResponse is the GET /healthz body; the smoke test asserts the
// drift counters off it.
type healthzResponse struct {
	Status            string       `json:"status"`
	Ingested          int64        `json:"ingested"`
	Batches           int64        `json:"batches"`
	Rejected          int64        `json:"rejected"`
	Shed              int64        `json:"shed"`
	BodyTooLarge      int64        `json:"body_too_large"`
	WindowStatements  int          `json:"window_statements"`
	WindowCapacity    int          `json:"window_capacity"`
	WindowTotal       int64        `json:"window_total"`
	DriftAlerts       int64        `json:"drift_alerts"`
	Resolves          int64        `json:"resolves"`
	SolveErrors       int64        `json:"solve_errors"`
	HasRecommendation bool         `json:"has_recommendation"`
	Memo              memoJSON     `json:"memo"`
	Durable           *durableJSON `json:"durable,omitempty"`
}

// durableJSON reports the WAL, snapshot, and recovery state when the
// service runs with a data directory. WindowTotal (above) doubles as
// the resume cursor: a client that replays a trace after a crash skips
// the first WindowTotal statements — everything durable — and resends
// the rest.
type durableJSON struct {
	WALLastSeq        uint64 `json:"wal_last_seq"`
	WALAppends        int64  `json:"wal_appends"`
	WALFsyncs         int64  `json:"wal_fsyncs"`
	WALSegments       int    `json:"wal_segments"`
	Snapshots         int64  `json:"snapshots"`
	SnapshotErrors    int64  `json:"snapshot_errors"`
	LastSnapshotSeq   uint64 `json:"last_snapshot_seq"`
	RecoverySnapSeq   uint64 `json:"recovery_snapshot_seq"`
	RecoveryReplayed  int    `json:"recovery_replayed"`
	RecoveryTruncated int64  `json:"recovery_truncated_bytes"`
	RecoveryDiscarded int64  `json:"recovery_snapshots_discarded"`
	WorldMismatch     bool   `json:"world_mismatch"`
}

type memoJSON struct {
	Entries       int64   `json:"entries"`
	Capacity      int     `json:"capacity"`
	HitRate       float64 `json:"hit_rate"`
	Evictions     int64   `json:"evictions"`
	Invalidations int64   `json:"invalidations"`
}

func (s *service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	s.mu.Lock()
	winLen, winCap, winTotal := s.win.Len(), s.win.Cap(), s.win.Total()
	s.mu.Unlock()
	ms := s.memo.Stats()
	resp := healthzResponse{
		Status:            "ok",
		Ingested:          s.ingested.Load(),
		Batches:           s.batches.Load(),
		Rejected:          s.rejected.Load(),
		Shed:              s.shed.Load(),
		BodyTooLarge:      s.bodyTooLarge.Load(),
		WindowStatements:  winLen,
		WindowCapacity:    winCap,
		WindowTotal:       winTotal,
		DriftAlerts:       s.driftAlerts.Load(),
		Resolves:          s.resolves.Load(),
		SolveErrors:       s.solveErrors.Load(),
		HasRecommendation: s.snap.Load() != nil,
		Memo: memoJSON{
			Entries:       ms.Entries,
			Capacity:      ms.Capacity,
			HitRate:       ms.HitRate(),
			Evictions:     ms.Evictions,
			Invalidations: ms.Invalidations,
		},
	}
	if s.store != nil {
		st := s.store.Stats()
		resp.Durable = &durableJSON{
			WALLastSeq:        st.LastSeq,
			WALAppends:        st.Appends,
			WALFsyncs:         st.Fsyncs,
			WALSegments:       st.Segments,
			Snapshots:         st.Snapshots,
			SnapshotErrors:    s.snapErrors.Load(),
			LastSnapshotSeq:   st.LastSnapshotSeq,
			RecoverySnapSeq:   s.recoveredSnapSeq,
			RecoveryReplayed:  s.recoveredReplay,
			RecoveryTruncated: st.TruncatedBytes,
			RecoveryDiscarded: st.SnapshotsDiscarded,
			WorldMismatch:     s.worldMismatch,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// --- Recommendation response -------------------------------------------

// recResponse is the GET /recommendation body: the design sequence in
// run-length form, the DDL steps to effect it, costing instrumentation,
// and (when enabled) the per-transition provenance.
type recResponse struct {
	Table       string    `json:"table"`
	Window      string    `json:"window"`
	WindowSeq   uint64    `json:"window_seq"`
	Reason      string    `json:"reason"`
	SolvedAt    time.Time `json:"solved_at"`
	SolveMillis float64   `json:"solve_millis"`
	Statements  int       `json:"statements"`
	Stages      int       `json:"stages"`
	K           int       `json:"k"`
	Initial     []string  `json:"initial"`
	Strategy    string    `json:"strategy"`
	Rung        string    `json:"rung"`
	Degraded    bool      `json:"degraded"`

	Cost      float64 `json:"cost"`
	ExecCost  float64 `json:"exec_cost"`
	TransCost float64 `json:"trans_cost"`
	Changes   int     `json:"changes"`
	// Gap is the anytime optimality gap: 0 when the answering solver
	// was exact, positive when a beam-pruned partitioned solve stopped
	// early (the optimum is then within [cost-gap, cost]).
	Gap float64 `json:"gap"`

	Designs []designRun `json:"designs"`
	Steps   []stepJSON  `json:"steps"`

	Stats       solveStatsJSON       `json:"stats"`
	Explanation *explain.Explanation `json:"explanation,omitempty"`
}

// designRun is one run of the design sequence: the configuration in
// effect from FromStatement until the next run starts.
type designRun struct {
	FromStatement int      `json:"from_statement"`
	Label         string   `json:"label,omitempty"`
	Indexes       []string `json:"indexes"`
}

type stepJSON struct {
	Statement int      `json:"statement"`
	DDL       []string `json:"ddl"`
}

type solveStatsJSON struct {
	WhatIfCalls  int64   `json:"whatif_calls"`
	MemoHitRate  float64 `json:"memo_hit_rate"`
	MatrixBuilds int64   `json:"matrix_builds"`
	MatrixReuses int64   `json:"matrix_reuses"`
}

// configNames renders a configuration as its structure names.
func configNames(c core.Config, names []string) []string {
	out := []string{}
	for _, s := range c.Structures() {
		if s < len(names) {
			out = append(out, names[s])
		} else {
			out = append(out, fmt.Sprintf("bit%d", s))
		}
	}
	return out
}

func buildResponse(rec *advisor.Recommendation, expl *explain.Explanation, reason string, seq uint64, elapsed time.Duration) recResponse {
	resp := recResponse{
		Table:       rec.Table,
		Window:      rec.Workload.Name,
		WindowSeq:   seq,
		Reason:      reason,
		SolvedAt:    time.Now().UTC(),
		SolveMillis: float64(elapsed.Microseconds()) / 1000,
		Statements:  rec.Workload.Len(),
		Stages:      rec.Problem.Stages,
		K:           rec.Problem.K,
		Initial:     configNames(rec.Problem.Initial, rec.StructureNames),
		Strategy:    string(rec.Strategy),
		Rung:        string(rec.Rung),
		Degraded:    rec.Degraded,
		Cost:        rec.Solution.Cost,
		ExecCost:    rec.Solution.ExecCost,
		TransCost:   rec.Solution.TransCost,
		Changes:     rec.Solution.Changes,
		Gap:         rec.Gap,
		Stats: solveStatsJSON{
			WhatIfCalls:  rec.Stats.WhatIfCalls,
			MemoHitRate:  rec.Stats.HitRate(),
			MatrixBuilds: rec.MatrixBuilds,
			MatrixReuses: rec.MatrixReuses,
		},
		Explanation: expl,
	}
	// Run-length compress the per-stage designs: one entry per region
	// of constant configuration.
	prev := rec.Problem.Initial
	for i, cfg := range rec.Solution.Designs {
		if i == 0 || cfg != prev {
			resp.Designs = append(resp.Designs, designRun{
				FromStatement: rec.Segments[i].Start,
				Label:         rec.Segments[i].Label,
				Indexes:       configNames(cfg, rec.StructureNames),
			})
			prev = cfg
		}
	}
	for _, st := range rec.Steps() {
		resp.Steps = append(resp.Steps, stepJSON{Statement: st.StatementIndex, DDL: st.DDL})
	}
	return resp
}

// --- Gauges ------------------------------------------------------------

func (s *service) helpGauges() {
	g := s.cfg.Gauges
	if g == nil {
		return
	}
	g.Help("advisord_ingested_total", "Statements accepted by /ingest over the service lifetime.")
	g.Help("advisord_window_statements", "Statements currently in the sliding window.")
	g.Help("advisord_drift_alerts_total", "Drift alerts raised by the workload alerter.")
	g.Help("advisord_resolves_total", "Window re-solves that published a recommendation.")
	g.Help("advisord_solve_errors_total", "Window re-solves that failed.")
	g.Help("advisord_last_solve_seconds", "Wall-clock duration of the last re-solve (the advisord_solve_seconds histogram has the distribution).")
	g.Help("advisord_solve_cost", "Objective cost of the last published recommendation.")
	g.Help("advisord_solve_gap", "Anytime optimality gap of the last recommendation (0 = proven optimal).")
	g.Help("advisord_plan_tables_built_total", "Per-statement plan tables compiled by the last solve's batched costing layer.")
	g.Help("advisord_plan_table_bytes", "Heap bytes retained by the last solve's compiled plan tables.")
	g.Help("advisord_batched_lookups_total", "Configurations the last solve evaluated through the batched what-if entry point.")
	g.Help("advisord_memo_entries", "Current occupancy of the retained what-if memo, in cells (stored rows x candidate configurations).")
	g.Help("advisord_memo_hit_rate", "Lifetime hit rate of the retained what-if memo.")
	g.Help("advisord_memo_evictions_total", "Cells evicted (whole rows at a time) from the capped what-if memo.")
	g.Help("advisord_memo_invalidations_total", "Whole-memo purges caused by cost-world or candidate-list changes.")
	g.Help("advisord_shed_total", "Ingest requests shed with 429 by the overload guard.")
	g.Help("advisord_body_too_large_total", "Requests rejected with 413 for exceeding the body cap.")
	g.Help("advisord_wal_appends_total", "Records appended to the write-ahead log this process.")
	g.Help("advisord_wal_appended_bytes_total", "Bytes appended to the write-ahead log this process.")
	g.Help("advisord_wal_fsyncs_total", "WAL and snapshot fsyncs issued this process.")
	g.Help("advisord_wal_segments", "Current WAL segment file count.")
	g.Help("advisord_snapshots_total", "Durable snapshots written this process.")
	g.Help("advisord_snapshot_errors_total", "Durable snapshot writes that failed.")
	g.Help("advisord_snapshot_last_seq", "WAL sequence folded into the newest durable snapshot.")
	g.Help("advisord_recovery_replayed", "WAL records replayed into the window at startup.")
	g.Help("advisord_recovery_truncated_bytes", "Torn-tail bytes truncated from the WAL at startup.")
	g.Help("advisord_recovery_snapshot_seq", "WAL sequence of the snapshot recovery started from.")
	g.Help("advisord_recovery_world_mismatch", "1 when recovery dropped cost-derived state because table statistics changed.")
	g.Help("advisord_recommendation_age_seconds", "Seconds since the current recommendation was published (absent before the first solve).")
	g.Help("advisord_calib_runs_total", "Calibration replay runs folded into the monitor.")
	g.Help("advisord_calib_samples_total", "Estimate/measurement pairs collected across all calibration runs.")
	g.Help("advisord_calib_skipped_dml_total", "Statements excluded from calibration because replaying them would mutate the database.")
	g.Help("advisord_calib_errors_total", "Calibration replay runs that failed outright.")
	g.Help("advisord_calib_median_abs_ratio", "Streaming median of the absolute estimate/measurement ratio max(r, 1/r); 1.0 = perfectly calibrated.")
	g.Help("advisord_calib_p90_abs_ratio", "Streaming 90th percentile of the absolute estimate/measurement ratio.")
	g.Help("advisord_calib_mean_signed_log2", "Mean signed error in doublings; positive = the cost model underestimates.")
	g.Help("advisord_calib_trend", "Drift of per-run median absolute error (doublings) between older and newer calibration runs; positive = the model is getting worse.")
}

// publishRecoveryGauges exports the startup recovery facts once.
func (s *service) publishRecoveryGauges() {
	g := s.cfg.Gauges
	if g == nil || s.store == nil {
		return
	}
	st := s.store.Stats()
	g.Set("advisord_recovery_replayed", float64(s.recoveredReplay))
	g.Set("advisord_recovery_truncated_bytes", float64(st.TruncatedBytes))
	g.Set("advisord_recovery_snapshot_seq", float64(s.recoveredSnapSeq))
	mismatch := 0.0
	if s.worldMismatch {
		mismatch = 1
	}
	g.Set("advisord_recovery_world_mismatch", mismatch)
}

// publishDurableGauges refreshes the WAL and snapshot counters.
func (s *service) publishDurableGauges() {
	g := s.cfg.Gauges
	if g == nil || s.store == nil {
		return
	}
	st := s.store.Stats()
	g.Set("advisord_wal_appends_total", float64(st.Appends))
	g.Set("advisord_wal_appended_bytes_total", float64(st.AppendedBytes))
	g.Set("advisord_wal_fsyncs_total", float64(st.Fsyncs))
	g.Set("advisord_wal_segments", float64(st.Segments))
	g.Set("advisord_snapshots_total", float64(st.Snapshots))
	g.Set("advisord_snapshot_errors_total", float64(s.snapErrors.Load()))
	g.Set("advisord_snapshot_last_seq", float64(st.LastSnapshotSeq))
}

func (s *service) publishIngestGauges() {
	g := s.cfg.Gauges
	if g == nil {
		return
	}
	s.mu.Lock()
	winLen := s.win.Len()
	s.mu.Unlock()
	g.Set("advisord_ingested_total", float64(s.ingested.Load()))
	g.Set("advisord_window_statements", float64(winLen))
	g.Set("advisord_drift_alerts_total", float64(s.driftAlerts.Load()))
	g.Set("advisord_shed_total", float64(s.shed.Load()))
	g.Set("advisord_body_too_large_total", float64(s.bodyTooLarge.Load()))
	s.publishDurableGauges()
}

func (s *service) publishGauges(rec *advisor.Recommendation, elapsed time.Duration) {
	g := s.cfg.Gauges
	if g == nil {
		return
	}
	g.Set("advisord_resolves_total", float64(s.resolves.Load()))
	g.Set("advisord_solve_errors_total", float64(s.solveErrors.Load()))
	g.Set("advisord_last_solve_seconds", elapsed.Seconds())
	if rec != nil && rec.Solution != nil {
		g.Set("advisord_solve_cost", rec.Solution.Cost)
		g.Set("advisord_solve_gap", rec.Gap)
		g.Set("advisord_plan_tables_built_total", float64(rec.Stats.PlanTableBuilds))
		g.Set("advisord_plan_table_bytes", float64(rec.Stats.PlanTableBytes))
		g.Set("advisord_batched_lookups_total", float64(rec.Stats.BatchedLookups))
	}
	ms := s.memo.Stats()
	g.Set("advisord_memo_entries", float64(ms.Entries))
	g.Set("advisord_memo_hit_rate", ms.HitRate())
	g.Set("advisord_memo_evictions_total", float64(ms.Evictions))
	g.Set("advisord_memo_invalidations_total", float64(ms.Invalidations))
	s.publishDurableGauges()
}

// publishCalibGauges exports the monitor's streaming calibration
// statistics after each replay run.
func (s *service) publishCalibGauges() {
	g := s.cfg.Gauges
	if g == nil {
		return
	}
	rep := s.calibMon.Report()
	g.Set("advisord_calib_runs_total", float64(rep.Runs))
	g.Set("advisord_calib_samples_total", float64(rep.Samples))
	g.Set("advisord_calib_skipped_dml_total", float64(rep.SkippedDML))
	g.Set("advisord_calib_errors_total", float64(s.calibErrors.Load()))
	g.Set("advisord_calib_median_abs_ratio", rep.MedianAbsRatio)
	g.Set("advisord_calib_p90_abs_ratio", rep.P90AbsRatio)
	g.Set("advisord_calib_mean_signed_log2", rep.MeanSignedLog2)
	g.Set("advisord_calib_trend", rep.Trend)
}
