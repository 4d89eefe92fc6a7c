package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"dyndesign/internal/advisor"
	"dyndesign/internal/alerter"
	"dyndesign/internal/core"
	"dyndesign/internal/durable"
	"dyndesign/internal/experiments"
	"dyndesign/internal/explain"
	"dyndesign/internal/obs"
	"dyndesign/internal/workload"
)

// Traced-run sizes.
const (
	// overheadChunk statements are pushed alternately with and without
	// the recorder to price the tracing itself.
	overheadChunk = 250
	layerSlides   = 4
	calibSamples  = 16 // advisord's -calib-samples default
	coverageFloor = 0.95
	readerPoll    = 5 * time.Millisecond
)

// runTraced is the traced run: it pushes the workload's own statements
// through every layer of the system from outside — the handler-order
// ingest pipeline, the full-lattice solve pipeline, the engine and its
// substrates, and a real advisord child — with a span around every call
// into a layer, and derives every per-layer metric from the spans and
// the layers' own counters. End-to-end metrics are measured by the
// untraced run only.
func runTraced(e *env, r *result) error {
	rec := newRecorder()
	stmts, err := e.take(e.cfg.size.layerStatements)
	if err != nil {
		return err
	}
	window, err := e.take(e.cfg.size.latticeWindow + layerSlides*latticeSegment)
	if err != nil {
		return err
	}

	if err := probeEnv(e, r); err != nil {
		return err
	}
	// The set-up split: Analyze again on the loaded table (same rows,
	// same statistics) prices the statistics pass, the rest was load.
	t0 := time.Now()
	r.op(1)
	if !r.must(e.db.Analyze(workload.PaperTable), "Analyze") {
		return nil
	}
	analyze := time.Since(t0)
	r.set("stats.analyze_ms", float64(analyze)/1e6, 1)
	r.set("engine.load_rows_per_s", float64(e.cfg.rows)/(e.loadSeconds-analyze.Seconds()), int(e.cfg.rows))

	ing, err := layerIngest(e, r, rec, stmts)
	if err != nil {
		return err
	}
	if err := layerLattice(e, r, rec, window); err != nil {
		return err
	}
	if err := probeCost(e, r, rec, stmts); err != nil {
		return err
	}
	if err := probeSubstrate(e, r, rec); err != nil {
		return err
	}
	if err := probeEngine(e, r, rec); err != nil {
		return err
	}
	if err := layerService(e, r, stmts, ing.perBatchUS); err != nil {
		return err
	}

	cov := coverage(rec.spans)
	r.set("trace.coverage", cov, len(rec.spans))
	r.check(cov >= coverageFloor, "spans cover %.3f of the in-process pipelines' wall time, below %.2f", cov, coverageFloor)
	r.set("trace.overhead_pct", 100*(ing.tracedS-ing.untracedS)/ing.untracedS, 0)

	path := e.cfg.trace
	if path == "1" {
		path = filepath.Join(e.root, workDirName, "spans-"+e.cfg.workload+".jsonl")
	}
	if err := writeSpans(path, rec.spans); err != nil {
		return err
	}
	fmt.Printf("# %d spans written to %s\n", len(rec.spans), path)
	return nil
}

// ingestTimes is what the in-process ingest pipeline hands on.
type ingestTimes struct {
	// perBatchUS is the in-process time of one durable batch of ten
	// statements: the part of a POST /ingest round trip the layers
	// account for.
	perBatchUS         float64
	tracedS, untracedS float64
}

// publishedRec mirrors what advisord marshals when it publishes: the
// solution and the attribution.
type publishedRec struct {
	Solution    *core.Solution       `json:"solution"`
	Explanation *explain.Explanation `json:"explanation"`
}

// layerIngest pushes statements through the calls advisord's ingest
// handler makes, in its order — NewStatement → StatementCost →
// Store.AppendStatement (one fsync each) → Window.Append →
// Stream.Observe — and, on every drift alert and once at the end,
// through the calls its solver makes: Window.Snapshot → RecommendContext
// → Explain (attribution) → json.Marshal → Store.WriteSnapshot →
// Calibrate. Chunks of statements alternate between the recorder and
// none, which prices the tracing.
func layerIngest(e *env, r *result, rec *recorder, stmts []stmt) (ingestTimes, error) {
	var out ingestTimes
	adv := e.adv
	if e.cfg.workload == wlSolveLattice {
		// The service's design space, whatever the workload's own is.
		var err error
		if adv, err = advisor.New(e.db, experiments.PaperSpace()); err != nil {
			return out, err
		}
	}
	dir, err := e.freshDir("layer-data")
	if err != nil {
		return out, err
	}
	store, err := durable.Open(dir, durable.Options{FsyncEvery: 1})
	if err != nil {
		return out, err
	}
	defer func() {
		if store != nil {
			store.Close()
		}
	}()
	if _, _, err := store.Recover(); err != nil {
		return out, err
	}
	win, err := workload.NewWindow("live", serviceWindow)
	if err != nil {
		return out, err
	}
	al, err := alerter.New(adv, adv.Space().Configs, core.Config(0), alerter.Options{})
	if err != nil {
		return out, err
	}
	stream := alerter.NewStream(al, nil)
	memo, cache := advisor.NewMemo(0), core.NewSolveCache()
	installed := core.Config(0)
	alerts, solves, skippedDML := 0, 0, 0
	sqlBytes := 0

	solve := func() error {
		rec.nextOp()
		rec.begin("solve.pipeline")
		defer rec.end()
		rec.begin("workload.window_snapshot")
		w := win.Snapshot()
		rec.next("advisor.recommend")
		got, err := adv.RecommendContext(context.Background(), w, advisor.Options{
			K: serviceK, Initial: installed, Memo: memo, Cache: cache,
		})
		if err != nil {
			rec.end()
			return err
		}
		rec.next("explain.attribution")
		expl, err := adv.Explain(context.Background(), got, attributionOnly)
		if err != nil {
			rec.end()
			return err
		}
		rec.next("service.rec_marshal")
		if _, err := json.Marshal(publishedRec{Solution: got.Solution, Explanation: expl}); err != nil {
			rec.end()
			return err
		}
		installed = got.Solution.Designs[len(got.Solution.Designs)-1]
		if err := stream.SetCurrent(installed); err != nil {
			rec.end()
			return err
		}
		rec.next("durable.snapshot_write")
		state := stream.State()
		err = store.WriteSnapshot(&durable.Snapshot{
			Seq: store.LastSeq(), Window: win.State(), Installed: installed,
			LastKnownGood: got.Solution, StatsFingerprint: adv.StatsFingerprint(), Alerter: &state,
		})
		if err != nil {
			rec.end()
			return err
		}
		rec.next("calib.run")
		rep, err := adv.Calibrate(got, advisor.CalibrateOptions{Samples: calibSamples, Seed: int64(solves) + 1})
		rec.end()
		if err != nil {
			return err
		}
		skippedDML += rep.SkippedDML
		solves++
		return nil
	}

	// ingest is the per-statement handler path; tr is rec or nil.
	ingest := func(tr *recorder, s stmt) (alert bool, err error) {
		tr.nextOp()
		tr.begin("sql.parse")
		parsed, err := workload.NewStatement(s.S.SQL)
		if err != nil {
			tr.end()
			return false, err
		}
		tr.next("cost.validate")
		if _, err := adv.StatementCost(parsed, core.Config(0)); err != nil {
			tr.end()
			return false, err
		}
		tr.next("durable.append")
		if _, err := store.AppendStatement(s.Label, s.S.SQL); err != nil {
			tr.end()
			return false, err
		}
		tr.next("workload.window_append")
		win.Append(s.Label, parsed)
		tr.next("alerter.observe")
		a, err := stream.Observe(context.Background(), parsed)
		tr.end()
		return a != nil, err
	}

	r.op(len(stmts))
	for lo := 0; lo < len(stmts); lo += overheadChunk {
		chunk := stmts[lo:min(lo+overheadChunk, len(stmts))]
		tr := rec
		if (lo/overheadChunk)%2 == 1 {
			tr = nil
		}
		pending := 0
		tr.begin("ingest.pipeline")
		t0 := time.Now()
		for _, s := range chunk {
			alert, err := ingest(tr, s)
			if err != nil {
				tr.end()
				r.fail("in-process ingest of %q: %v", s.S.SQL, err)
				return out, nil
			}
			if alert {
				pending++
			}
			sqlBytes += len(s.S.SQL)
		}
		d := time.Since(t0).Seconds()
		tr.end()
		if tr != nil {
			out.tracedS += d
		} else {
			out.untracedS += d
		}
		// Drift solves run between chunks, always traced, so that the
		// chunks compare like with like.
		alerts += pending
		if pending > 0 {
			r.op(1)
			if !r.must(solve(), "in-process drift solve") {
				return out, nil
			}
		}
	}
	r.op(1)
	if !r.must(solve(), "in-process final solve") {
		return out, nil
	}

	st := store.Stats()
	r.op(1)
	if !r.must(store.Close(), "closing the in-process store") {
		store = nil
		return out, nil
	}
	store = nil
	// Recovery of the directory this run left: Open repairs and
	// positions the log, Recover loads the snapshot and the tail.
	rec.begin("durable.recover")
	t0 := time.Now()
	reopened, err := durable.Open(dir, durable.Options{FsyncEvery: 1})
	var tail []durable.Record
	var snap *durable.Snapshot
	if err == nil {
		snap, tail, err = reopened.Recover()
	}
	recoverD := time.Since(t0)
	rec.end()
	r.op(1)
	if !r.must(err, "re-opening the in-process store") {
		return out, nil
	}
	store = reopened
	r.check(snap != nil && snap.Seq+uint64(len(tail)) == uint64(len(stmts)),
		"recovery returned snapshot+tail short of the %d statements appended", len(stmts))

	lt := layerTotals(rec.spans)
	// Mean self time per call of each layer span, in the metric's unit.
	for _, m := range []struct {
		metric, span string
		perUnitNS    float64
	}{
		{"sql.parse_ns_per_stmt", "sql.parse", 1},
		{"cost.validate_ns_per_stmt", "cost.validate", 1},
		{"durable.append_us_per_stmt", "durable.append", 1e3},
		{"workload.window_append_ns", "workload.window_append", 1},
		{"alerter.observe_ns_per_stmt", "alerter.observe", 1},
		{"workload.window_snapshot_us", "workload.window_snapshot", 1e3},
		{"explain.attribution_us", "explain.attribution", 1e3},
		{"service.rec_marshal_us", "service.rec_marshal", 1e3},
		{"durable.snapshot_write_ms", "durable.snapshot_write", 1e6},
		{"calib.run_ms", "calib.run", 1e6},
	} {
		t := lt[m.span]
		r.set(m.metric, float64(t.SelfNS)/float64(max(t.Count, 1))/m.perUnitNS, int(t.Count))
	}
	r.set("alerter.alerts", float64(alerts), 0)
	r.set("calib.skipped_dml", float64(skippedDML), 0)
	r.set("durable.recover_ms", float64(recoverD)/1e6, 1)
	// Counts that repeat exactly for one seed. Snapshot writes sync too,
	// so the WAL's own fsyncs are the total less what the snapshots did;
	// reporting the total per statement keeps it one exact number.
	r.set("durable.fsyncs_per_stmt", float64(st.Fsyncs)/float64(len(stmts)), len(stmts))
	r.set("durable.wal_bytes_per_stmt_byte", float64(st.AppendedBytes)/float64(sqlBytes), len(stmts))

	// Medians, like the round trip they are compared with: the mean of
	// the append is pulled up by the occasional slow fsync.
	for _, name := range []string{"sql.parse", "cost.validate", "durable.append", "workload.window_append", "alerter.observe"} {
		out.perBatchUS += durableBatch * lt[name].MedianNS / 1e3
	}
	return out, nil
}

// layerLattice pushes an 18 000-statement window of the workload's
// statements through the full 2¹⁰-lattice solve: one cold operation and
// layerSlides slides on retained memo and cache. The solver's own spans
// arrive through the public Options.Tracer in an obs.Aggregator.
func layerLattice(e *env, r *result, rec *recorder, trace []stmt) error {
	adv := e.adv
	if e.cfg.workload != wlSolveLattice {
		var err error
		if adv, err = advisor.New(e.db, latticeSpace()); err != nil {
			return err
		}
	}
	rec.nextOp()
	rec.begin("workload.segments")
	window := e.cfg.size.latticeWindow
	full := toWorkload("lattice", trace)
	first := full.Slice(0, window)
	t0 := time.Now()
	segs := first.Segments(latticeSegment)
	segD := time.Since(t0)
	rec.end()
	r.check(len(segs) >= window/latticeSegment, "Segments(%d) gave %d stages", latticeSegment, len(segs))
	r.set("workload.segments_us", float64(segD)/1e3, 1)

	agg := obs.NewAggregator()
	opts := latticeOptions()
	opts.Memo = advisor.NewMemo(0)
	opts.Cache = core.NewSolveCache()
	opts.Tracer = obs.NewTracer(agg, rec)
	op := func(root string, w *workload.Workload) (*advisor.Recommendation, error) {
		rec.nextOp()
		rec.begin(root)
		defer rec.end()
		rec.begin("advisor.recommend")
		got, err := adv.RecommendContext(context.Background(), w, opts)
		if err != nil {
			rec.end()
			return nil, err
		}
		rec.next("explain.attribution")
		_, err = adv.Explain(context.Background(), got, attributionOnly)
		rec.end()
		return got, err
	}
	stage := func(name string) float64 {
		for _, s := range agg.Snapshot() {
			if s.Name == name {
				return float64(s.Total) / 1e6
			}
		}
		return 0
	}

	r.op(1)
	cold, err := op("lattice.cold", first)
	if !r.must(err, "traced cold operation") {
		return nil
	}
	checkSolution(r, cold)
	solve, build, dp := stage(core.SpanSolve), stage(core.SpanMatrixBuild), stage(core.SpanKAwareSweep)
	r.set("advisor.problem_ms", stage("advisor.problem"), 1)
	r.set("advisor.recommend_ms", stage("advisor.recommend"), 1)
	r.set("advisor.whatif_calls", float64(cold.Stats.WhatIfCalls), 0)
	r.set("core.solve_ms", solve, 1)
	r.set("core.matrix_build_ms", build, 1)
	r.set("core.dp_ms", dp, 1)
	r.set("core.backtrack_ms", solve-build-dp, 1)

	agg.Reset()
	var last *advisor.Recommendation
	reuses := int64(0)
	for i := 1; i <= layerSlides; i++ {
		w := full.Slice(i*latticeSegment, i*latticeSegment+window)
		r.op(1)
		got, err := op("lattice.slide", w)
		if !r.must(err, "traced slide operation") {
			return nil
		}
		checkSolution(r, got)
		reuses += got.MatrixReuses
		last = got
	}
	r.set("advisor.slide_recommend_ms", stage("advisor.recommend")/layerSlides, layerSlides)
	r.set("advisor.memo_hit_rate", last.Stats.HitRate(), 0)
	r.set("core.matrix_reuses", float64(reuses), 0)
	return nil
}

// layerService drives a real advisord child with the workload's
// statements — WAL with one fsync per statement, every other flag at its
// default — in batches of ten over the one ingest connection, while one
// reader connection polls GET /recommendation every 5 ms. The reader is
// what makes publish lag measurable, and it is why this runs in the
// traced run only: a poller beside the ingest loop moves ingest latency.
func layerService(e *env, r *result, stmts []stmt, inProcessBatchUS float64) error {
	port, err := freePort()
	if err != nil {
		return err
	}
	dataDir, err := e.freshDir("service-data")
	if err != nil {
		return err
	}
	args := []string{"-data-dir", dataDir, "-fsync-every", "1"}
	r.op(1)
	c, err := startChild(e.bin, port, e.cfg.rows, args...)
	if !r.must(err, "starting the traced child") {
		return nil
	}
	defer func() { c.stop() }()

	// The reader: every poll is timed; a changed window_seq is a
	// publication, stamped with the time the poll saw it.
	var mu sync.Mutex
	var pubs []time.Time
	var getUS []float64
	stopReader := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		lastSeq := uint64(0)
		seen := false
		tick := time.NewTicker(readerPoll)
		defer tick.Stop()
		for {
			select {
			case <-stopReader:
				return
			case <-tick.C:
			}
			t0 := time.Now()
			resp, err := c.reader.Get(c.base + "/recommendation")
			if err != nil {
				continue // the ledger checks below catch a dead child
			}
			body, _ := io.ReadAll(resp.Body) // a short read fails the decode below
			resp.Body.Close()
			now := time.Now()
			if resp.StatusCode != http.StatusOK {
				continue // 503 until the first solve publishes
			}
			var b recBody
			if json.Unmarshal(body, &b) != nil {
				continue
			}
			mu.Lock()
			getUS = append(getUS, float64(now.Sub(t0))/1e3)
			if !seen || b.WindowSeq != lastSeq {
				pubs = append(pubs, now)
				seen, lastSeq = true, b.WindowSeq
			}
			mu.Unlock()
		}
	}()

	bodies, err := ingestBodies(stmts, durableBatch)
	if err != nil {
		return err
	}
	var postMS []float64
	var alertAt []time.Time
	acked := 0
	for _, body := range bodies {
		r.op(1)
		t := time.Now()
		status, resp, err := c.post("/ingest", body)
		now := time.Now()
		postMS = append(postMS, float64(now.Sub(t))/1e6)
		var ack ingestAck
		if err != nil || status != 200 || json.Unmarshal(resp, &ack) != nil {
			r.fail("POST /ingest to the traced child: status %d, err %v, body %.200s", status, err, resp)
			continue
		}
		acked += ack.Ingested
		if ack.Alerts > 0 {
			alertAt = append(alertAt, now)
		}
	}
	// One forced solve drains the solver and fetches a full body.
	r.op(1)
	status, body, err := c.post("/solve", nil)
	if err != nil || status != 200 {
		r.fail("POST /solve to the traced child: status %d, err %v", status, err)
	}
	time.Sleep(4 * readerPoll) // let the reader see the last publication
	close(stopReader)
	<-readerDone

	var lagMS []float64
	for _, at := range alertAt {
		for _, p := range pubs {
			if p.After(at) {
				lagMS = append(lagMS, float64(p.Sub(at))/1e6)
				break
			}
		}
	}
	if len(lagMS) == 0 {
		// No ack reported a drift alert on these statements: there is no
		// lag to report, which is not a failure of the service.
		lagMS = []float64{0}
	}
	r.set("service.ingest_p50_ms", median(postMS), len(postMS))
	r.set("service.ingest_p99_ms", quantile(postMS, 0.99), len(postMS))
	r.set("service.http_json_residual_us", median(postMS)*1e3-inProcessBatchUS, len(postMS))
	r.set("service.publish_lag_p50_ms", median(lagMS), len(alertAt))
	r.set("service.rec_get_p50_us", median(getUS), len(getUS))
	r.set("service.rec_bytes", float64(len(body)), 0)

	var h healthz
	var sv solvesBody
	r.op(2)
	if r.must(c.getJSON(c.ingest, "/healthz", &h), "GET /healthz") && r.must(c.getJSON(c.ingest, "/solves", &sv), "GET /solves") {
		r.check(h.Ingested == int64(len(stmts)) && acked == len(stmts) && h.Rejected == 0 && h.Shed == 0 && h.SolveErrors == 0,
			"traced child ledger: sent %d, acked %d, ingested %d, rejected %d, shed %d, solve_errors %d",
			len(stmts), acked, h.Ingested, h.Rejected, h.Shed, h.SolveErrors)
		var solveMS []float64
		for _, s := range sv.Solves {
			solveMS = append(solveMS, s.SolveMillis)
		}
		r.set("service.solve_ms_p50", median(solveMS), len(solveMS))
		r.set("service.resolves", float64(h.Resolves), 0)
		r.set("service.drift_alerts", float64(h.DriftAlerts), 0)
	}

	// Crash and restart over the same directory: boot plus recovery.
	c.kill()
	t0 := time.Now()
	r.op(1)
	c, err = startChild(e.bin, port, e.cfg.rows, args...)
	if !r.must(err, "restarting the traced child") {
		return nil
	}
	r.op(1)
	if r.must(c.getJSON(c.ingest, "/healthz", &h), "GET /healthz after restart") {
		r.set("durable.restart_ready_s", time.Since(t0).Seconds(), 1)
		r.check(h.WindowTotal == int64(acked), "after restart window_total %d != acked %d", h.WindowTotal, acked)
	}
	return nil
}
