// Command advisord is the long-running design advisor service: it
// ingests a SQL statement stream over HTTP, maintains a sliding (or
// tumbling) window of recent statements, and re-solves the constrained
// dynamic design problem whenever the drift alerter — not a timer —
// decides the installed design no longer fits the window.
//
// Endpoints:
//
//	POST /ingest          {"sql": "SELECT ..."} or {"statements": [{"label": "A", "sql": "..."}]}
//	POST /solve           force a synchronous re-solve and return the fresh recommendation
//	GET  /recommendation  last published design sequence, DDL steps, and provenance
//	GET  /solves          per-solve decision lineage, newest first (ring of 64)
//	GET  /calibration     streaming cost-model calibration report (estimate vs measured)
//	GET  /healthz         ingest/solve counters, memo occupancy, and WAL/recovery state
//
// After a published solve the service replays -calib-samples window
// statements against the engine under the recommended design, pairing
// each measured page-access count with the what-if estimate that
// justified the recommendation. The replay runs on its own goroutine,
// one at a time, after the solve has answered; when solves outpace it
// only the newest waiting publish is replayed. The streaming error
// statistics (bias, ratio quantiles, drift trend) feed GET /calibration
// and the advisord_calib_* gauges; each solve's lineage record —
// trigger, window slice, WAL cursor, ladder rung, cache warmth — lands
// in GET /solves and, with -data-dir, in an append-only solves.jsonl
// audit log at publication, and gains its calibration summary (a
// follow-up line in the log) when the replay finishes. See DESIGN.md §16.
//
// With -data-dir the service is crash-safe: every accepted ingest batch
// is appended to a write-ahead log as one CRC frame and fsynced once
// BEFORE the window sees it — applied whole or not at all — and the
// derived state (window ring, installed design, last-known-good
// solution, drift-detector costs) is snapshotted after every published
// solve. On restart the service loads the newest valid
// snapshot, replays the WAL tail, truncates torn records at the first
// bad frame, and resumes where it left off; /healthz window_total is
// the resume cursor for clients replaying a trace. Ingest is bounded:
// past -max-inflight concurrent requests the service sheds with 429 +
// Retry-After instead of queueing, and bodies beyond -max-body-bytes
// get 413. See DESIGN.md §14.
//
// Re-solves warm-start from state retained across windows: the what-if
// EXEC row store (one cost row per distinct segment content, so a slid
// window costs only the segments that entered it; -memo-cap bounds it
// in 8-byte cells) and the last-known-good solution backing the resilient
// ladder's final rung.
// Each solve runs under a deadline with the degradation ladder, and the
// published recommendation is swapped atomically, so concurrent readers
// always see a consistent last-known-good answer.
//
// Usage:
//
//	advisord -paper-rows 100000 -addr :8080 -k 2 -window 500
//	advisord -setup schema.sql -table t -addr :8080 -metrics-addr :9090
//
// -metrics-addr serves the service metrics (advisord_*, each declared
// once in views.go and read from live state at scrape time) in
// Prometheus text format plus expvar and pprof; -trace-out writes solver
// spans as JSONL (flushed on SIGTERM like the other CLIs). See DESIGN.md
// §13.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"dyndesign/internal/advisor"
	"dyndesign/internal/alerter"
	"dyndesign/internal/candidates"
	"dyndesign/internal/core"
	"dyndesign/internal/durable"
	"dyndesign/internal/experiments"
	"dyndesign/internal/obs"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "advisord: %v\n", err)
		if errors.Is(err, context.Canceled) {
			os.Exit(130)
		}
		os.Exit(1)
	}
}

func run(ctx context.Context) error {
	addr := flag.String("addr", ":8080", "service listen address")
	setup := flag.String("setup", "", "SQL script creating and filling the database")
	paperRows := flag.Int64("paper-rows", 0, "instead of -setup, build the paper's table with this many rows")
	table := flag.String("table", "t", "table to tune")
	k := flag.Int("k", 2, "change bound per window solve")
	// An unknown -strategy is a usage error (exit status 2) while the flags
	// parse, before the database is built or the listener opened: -fallback
	// is on by default, under which it would degrade every solve instead.
	strategy := core.StrategyKAware
	flag.Func("strategy", fmt.Sprintf("solver `name`, one of %v (default %s)", core.Strategies(), strategy), func(name string) (err error) {
		strategy, err = core.ParseStrategy(name)
		return err
	})
	segment := flag.Int("segment", 1, "statements per optimization stage")
	windowCap := flag.Int("window", 500, "sliding window capacity in statements")
	tumbling := flag.Bool("tumbling", false, "reset the window at every re-solve instead of sliding it")
	minSolve := flag.Int("min-statements", 25, "window fill that triggers the first solve (negative = solve only on POST /solve)")
	dataDir := flag.String("data-dir", "", "durable state directory (WAL + snapshots); empty = in-memory only")
	fsyncEvery := flag.Int("fsync-every", 1, "fsync the WAL after an ingest batch once N statements are waiting (1 = every batch is durable before it is acknowledged)")
	walSegmentBytes := flag.Int64("wal-segment-bytes", 4<<20, "rotate the WAL to a fresh segment file at this size")
	snapshotEvery := flag.Int("snapshot-every", 0, "also snapshot after every N ingested statements (0 = snapshot only after solves)")
	maxInflight := flag.Int("max-inflight", 64, "concurrent /ingest requests before shedding with 429 (negative = unbounded)")
	maxBody := flag.Int64("max-body-bytes", 1<<20, "request body cap in bytes; larger bodies get 413 (negative = unlimited)")
	memoCap := flag.Int("memo-cap", 1<<20, "retained what-if memo bound in 8-byte cells, each stored segment row charged its candidate configurations + 64 (0 = unbounded)")
	solveTimeout := flag.Duration("solve-timeout", 30*time.Second, "deadline per solve attempt (0 = none)")
	fallback := flag.Bool("fallback", true, "degrade to cheaper strategies (and last-known-good) when a solve attempt fails")
	parallelism := flag.Int("parallelism", 0, "worker bound for the plan compile and the cost-table build (0 = all cores, 1 = serial)")
	explainFlag := flag.Bool("explain", true, "attach per-transition cost attribution to each recommendation")
	alertWindow := flag.Int("alert-window", 0, "drift alerter window in statements (0 = default 500)")
	alertEvery := flag.Int("alert-every", 0, "re-check drift every this many statements (0 = default 50)")
	alertThreshold := flag.Float64("alert-threshold", 0, "relative improvement that counts as drift (0 = default 0.25)")
	calibSamples := flag.Int("calib-samples", 16, "statements replayed against the engine after each published solve to calibrate the cost model (0 = off)")
	calibSeed := flag.Int64("calib-seed", 1, "seed for the deterministic calibration sampling")
	traceOut := flag.String("trace-out", "", "write solver spans as JSONL to this file")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus metrics, expvar, and pprof at this address (e.g. :9090)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof at this address (may equal -metrics-addr)")
	flag.Parse()

	gauges := obs.NewGaugeSet()
	hists := obs.NewHistogramSet()
	tracer, obsTeardown, err := obs.Setup(obs.CLIConfig{
		TracePath:   *traceOut,
		MetricsAddr: *metricsAddr,
		PprofAddr:   *pprofAddr,
		SummaryW:    os.Stderr,
		Gauges:      gauges,
		Hists:       hists,
		// SIGTERM routes the JSONL tail flush through the signal path:
		// spans emitted before the signal survive even if the process
		// exits without running the deferred teardown.
		FlushCtx: ctx,
	})
	if err != nil {
		return err
	}
	defer obsTeardown()

	db, err := experiments.LoadDatabase(*setup, *paperRows, *table, os.Stderr)
	if err != nil {
		return err
	}
	structures := candidates.PaperStructures(*table)
	adv, err := advisor.New(db, advisor.DesignSpace{
		Table:      *table,
		Structures: structures,
		Configs:    advisor.SingleIndexConfigs(len(structures)),
	})
	if err != nil {
		return err
	}
	var store *durable.Store
	auditPath := ""
	if *dataDir != "" {
		store, err = durable.Open(*dataDir, durable.Options{FsyncEvery: *fsyncEvery, SegmentBytes: *walSegmentBytes})
		if err != nil {
			return err
		}
		// The solve lineage audit rides in the data dir beside the WAL:
		// an append-only JSONL history of every solve attempt.
		auditPath = filepath.Join(*dataDir, "solves.jsonl")
	}
	svc, err := newService(adv, serviceConfig{
		WindowCap:     *windowCap,
		Tumbling:      *tumbling,
		MinSolve:      *minSolve,
		MemoCap:       *memoCap,
		K:             *k,
		Strategy:      strategy,
		SegmentSize:   *segment,
		Timeout:       *solveTimeout,
		Fallback:      *fallback,
		Parallelism:   *parallelism,
		Explain:       *explainFlag,
		CalibSamples:  *calibSamples,
		CalibSeed:     *calibSeed,
		AuditPath:     auditPath,
		Store:         store,
		SnapshotEvery: *snapshotEvery,
		MaxInflight:   *maxInflight,
		MaxBody:       *maxBody,
		Alerter: alerter.Options{
			WindowSize: *alertWindow,
			CheckEvery: *alertEvery,
			Threshold:  *alertThreshold,
		},
		Tracer: tracer,
		Gauges: gauges,
		Hists:  hists,
	})
	if err != nil {
		if store != nil {
			store.Close()
		}
		return err
	}

	// The solver gets its own context so shutdown can order things
	// deterministically: drain HTTP, cancel any in-flight solve, wait
	// for the solver goroutine to exit, and only then svc.close: cancel
	// the calibrator and wait for it, write the final snapshot, release
	// the data dir. A snapshot can therefore never race a publishing
	// solve, and a replay never outlives the files its outcome lands in.
	solverCtx, cancelSolver := context.WithCancel(context.Background())
	defer cancelSolver()
	solverDone := make(chan struct{})
	go func() {
		defer close(solverDone)
		svc.run(solverCtx)
	}()

	// Full server timeouts: a slow or stalled client cannot hold a
	// connection (and its handler goroutine) forever. The write timeout
	// leaves room for a forced solve to run to its own deadline.
	writeTimeout := *solveTimeout + 30*time.Second
	if *solveTimeout <= 0 {
		writeTimeout = 0
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           svc.mux(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}
	srvErr := make(chan error, 1)
	go func() { srvErr <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "advisord: serving on %s (window %d, k %d, drift-triggered re-solves)\n",
		*addr, *windowCap, *k)

	shutdown := func() error {
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutCtx)
		cancelSolver()
		<-solverDone
		return svc.close()
	}
	select {
	case <-ctx.Done():
		if err := shutdown(); err != nil {
			fmt.Fprintf(os.Stderr, "advisord: shutdown: %v\n", err)
		}
		return ctx.Err()
	case err := <-srvErr:
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		if serr := shutdown(); err == nil {
			err = serr
		}
		return err
	}
}
