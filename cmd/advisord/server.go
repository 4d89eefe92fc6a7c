package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"dyndesign/internal/advisor"
	"dyndesign/internal/alerter"
	"dyndesign/internal/calib"
	"dyndesign/internal/core"
	"dyndesign/internal/durable"
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
	// byte-for-byte as before). The replay runs on the calibrator
	// goroutine, after the solve has published, recorded its lineage and
	// returned, so it delays neither this answer nor the next solve; when
	// solves outpace replays only the newest waiting publish is replayed.
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
	// Hists receives the ingest and solve latency distributions (nil =
	// not recorded).
	Hists *obs.HistogramSet
}

// snapshot is one published recommendation: the response body marshaled
// at publication. Snapshots are immutable after publication and swapped
// atomically, so any number of concurrent /recommendation readers see a
// consistent last-known-good answer while the next solve is in flight.
type snapshot struct {
	body []byte
	// at is the publication instant, backing the recommendation-age
	// metric. It lives beside the body, not in it, so publication
	// metadata never perturbs the recommendation bytes a reader gets.
	at time.Time
}

func (sn *snapshot) serve(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(sn.body)
}

// service is the long-running advisor: it owns the statement window,
// the drift alerter, the retained what-if row store, and the
// last-known-good recommendation snapshot.
//
// Concurrency model: ingest handlers run on arbitrary HTTP goroutines
// and serialize window mutation behind mu (the alerter serializes
// itself inside alerter.Stream). Solves run on exactly ONE goroutine —
// the run loop draining the trigger channel — which is what the shared
// memo requires; installed and lkg are touched only there. Calibration
// replays run on one more goroutine, the calibrator, which alone touches
// the engine. Readers never block on any of them: they load the atomic
// snapshot.
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
	// A batch's WAL frame is appended under mu together with its window
	// entries, so log order always equals window order.
	store *durable.Store
	// snapCh requests a durable snapshot from the solver goroutine
	// (buffered(1): pending requests coalesce like solve triggers).
	snapCh chan struct{}
	// forceCh carries synchronous POST /solve requests to the solver
	// goroutine, which owns all solver state.
	forceCh chan chan forcedSolve
	// inflight is the ingest admission semaphore; nil means unbounded.
	inflight chan struct{}
	// replaying drops the drift alerts the WAL tail re-raises while it is
	// re-applied during recovery (set only before serving starts).
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

	// The calibrator (calibrator.go; all nil with calibration off):
	// calibCh is its one-slot, latest-wins mailbox, fed by the solver
	// goroutine; close cancels it and waits on calibDone.
	calibCh     chan calibJob
	calibCancel context.CancelFunc
	calibDone   chan struct{}
	// calibHook, when non-nil, runs on the calibrator goroutine at the
	// start of every replay — the test seam for holding one in flight.
	calibHook func(solveID uint64)

	// Recovery facts, fixed before serving starts.
	recoveredSnapSeq uint64
	recoveredReplay  int
	recoveredDropped int // snapshot statements ingest refuses today
	worldMismatch    bool

	// Lifetime counters; /healthz and the metrics table read them in
	// place.
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
	// calibSuperseded counts publishes whose replay was replaced in the
	// mailbox by a newer publish before it started.
	calibSuperseded atomic.Int64
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
	strategy, err := core.ParseStrategy(string(cfg.Strategy))
	if err != nil {
		return nil, err
	}
	cfg.Strategy = strategy
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
	if g := cfg.Gauges; g != nil {
		// Declared once, never written: every scrape reads the table's
		// values from the state that owns them, off one view.
		families := make([]obs.Family, len(metricsTable))
		for i, m := range metricsTable {
			families[i] = obs.Family{Name: m.name, Help: m.help, Kind: m.kind}
		}
		g.Func(families, func() []float64 {
			v := s.view()
			out := make([]float64, len(metricsTable))
			for i, m := range metricsTable {
				out[i] = m.read(v)
			}
			return out
		})
	}
	if h := cfg.Hists; h != nil {
		h.Help("advisord_ingest_seconds", "POST /ingest handler latency, including WAL append and drift-alerter observation.")
		h.Help("advisord_solve_seconds", "Window re-solve latency (solver only; explain, publish, and calibration excluded).")
	}
	if cfg.CalibSamples > 0 {
		s.startCalibrator()
	}
	return s, nil
}

func (s *service) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/ingest", only(http.MethodPost, s.handleIngest))
	mux.HandleFunc("/solve", only(http.MethodPost, s.handleSolve))
	mux.HandleFunc("/recommendation", only(http.MethodGet, s.handleRecommendation))
	mux.HandleFunc("/solves", jsonView(s.solves))
	mux.HandleFunc("/calibration", jsonView(s.calibration))
	mux.HandleFunc("/healthz", jsonView(s.healthz))
	return mux
}

// only answers every other method with 405 before the handler runs.
func only(method string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			writeError(w, http.StatusMethodNotAllowed, "%s only", method)
			return
		}
		h(w, r)
	}
}

// jsonView serves a GET endpoint whose body is a value computed from
// the service's current state.
func jsonView[T any](build func() T) http.HandlerFunc {
	return only(http.MethodGet, func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, build())
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
