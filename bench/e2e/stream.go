package main

import (
	"encoding/json"
	"fmt"
	"slices"
	"time"

	"dyndesign/internal/advisor"
	"dyndesign/internal/core"
)

// Stream workload geometry. The service's window (500) and change bound
// (2) are advisord's defaults; the harness mirrors them for its
// reference solves.
const (
	serviceWindow = 500
	serviceK      = 2
	durableBatch  = 10
	// ingestShare of the measured time goes to the ingest phase, the
	// rest to the solve phase; see runStream.
	ingestShare = 0.4
	// solveNudge statements of each block are ingested between the
	// untimed forced solve and the timed one.
	solveNudge = 10
)

// reference mirrors what the service must hold: the last serviceWindow
// statements sent, from which the harness re-derives every forced
// recommendation in process.
type reference struct {
	adv  *advisor.Advisor
	tail []stmt
	sent int
}

func (ref *reference) add(stmts []stmt) {
	ref.sent += len(stmts)
	ref.tail = append(ref.tail, stmts...)
	if n := len(ref.tail); n > serviceWindow {
		ref.tail = slices.Clone(ref.tail[n-serviceWindow:])
	}
}

// configOf maps structure names from a response body to a configuration.
func configOf(adv *advisor.Advisor, names []string) (core.Config, error) {
	all := adv.Space().StructureNames()
	var c core.Config
	for _, n := range names {
		bit := slices.Index(all, n)
		if bit < 0 {
			return 0, fmt.Errorf("structure %q is not in the design space", n)
		}
		c = c.With(bit)
	}
	return c, nil
}

// verify checks one forced-solve body: the invariants any body must
// satisfy, and equality — cost and run-length designs — with an
// in-process advisor.Recommend over the statements the harness knows
// the window holds, starting from the body's own initial design.
func (ref *reference) verify(r *result, raw []byte) *recBody {
	var body recBody
	if err := json.Unmarshal(raw, &body); err != nil {
		r.check(false, "forced-solve body does not parse: %v", err)
		return nil
	}
	r.check(!body.Degraded && body.Rung == "kaware", "forced solve answered by rung %q (degraded %v)", body.Rung, body.Degraded)
	r.check(body.Changes <= serviceK, "forced solve makes %d changes with k=%d", body.Changes, serviceK)
	r.check(body.Cost == body.ExecCost+body.TransCost, "cost %v != exec %v + trans %v", body.Cost, body.ExecCost, body.TransCost)
	r.check(body.Statements == len(ref.tail), "service solved %d statements, harness sent a window of %d", body.Statements, len(ref.tail))

	initial, err := configOf(ref.adv, body.Initial)
	if err != nil {
		r.check(false, "forced-solve initial design: %v", err)
		return &body
	}
	rec, err := ref.adv.Recommend(toWorkload("reference", ref.tail), advisor.Options{K: serviceK, Initial: initial})
	r.op(1)
	if !r.must(err, "reference Recommend") {
		return &body
	}
	r.check(rec.Solution.Cost == body.Cost, "service cost %v != in-process cost %v", body.Cost, rec.Solution.Cost)
	var want []string
	prev := initial
	for i, cfg := range rec.Solution.Designs {
		if i == 0 || cfg != prev {
			want = append(want, fmt.Sprintf("%d:%s", rec.Segments[i].Start, cfg.Format(rec.StructureNames)))
			prev = cfg
		}
	}
	var got []string
	for _, d := range body.Designs {
		cfg, err := configOf(ref.adv, d.Indexes)
		if err != nil {
			r.check(false, "forced-solve design run: %v", err)
			return &body
		}
		got = append(got, fmt.Sprintf("%d:%s", d.FromStatement, cfg.Format(rec.StructureNames)))
	}
	r.check(slices.Equal(got, want), "service designs %v != in-process designs %v", got, want)
	return &body
}

// lastDesign is the configuration a body's design sequence ends in —
// the design the service installs.
func lastDesign(b *recBody) []string {
	if len(b.Designs) == 0 {
		return nil
	}
	return b.Designs[len(b.Designs)-1].Indexes
}

// ingestBodies marshals a round's statements into POST /ingest bodies
// of the given batch size; a batch of one uses the single-statement
// form {"sql":…,"label":…}.
func ingestBodies(stmts []stmt, batch int) ([][]byte, error) {
	var out [][]byte
	for lo := 0; lo < len(stmts); lo += batch {
		hi := min(lo+batch, len(stmts))
		var v any
		if batch == 1 {
			v = ingestStatement{SQL: stmts[lo].S.SQL, Label: stmts[lo].Label}
		} else {
			b := ingestBatch{}
			for _, s := range stmts[lo:hi] {
				b.Statements = append(b.Statements, ingestStatement{SQL: s.S.SQL, Label: s.Label})
			}
			v = b
		}
		raw, err := json.Marshal(v)
		if err != nil {
			return nil, err
		}
		out = append(out, raw)
	}
	return out, nil
}

// forcedSolve issues one POST /solve, verifies the body against the
// reference and returns the round trip; a non-200 answer counts as a
// failed operation.
func (sr *streamRun) forcedSolve(r *result, c *child, ref *reference) time.Duration {
	r.op(1)
	t0 := time.Now()
	status, body, err := c.post("/solve", nil)
	d := time.Since(t0)
	if err != nil || status != 200 {
		r.fail("POST /solve: status %d, err %v, body %.200s", status, err, body)
		return d
	}
	sr.lastBody = ref.verify(r, body)
	return d
}

// streamRun is the measured part of a stream workload.
type streamRun struct {
	postMS   []float64 // POST /ingest round trips of the ingest phase
	solveMS  []float64 // forced solves on an idle solver, each over a fresh block
	rates    []float64 // statements per second of each block of the ingest phase
	acked    int
	lastBody *recBody
}

// ingest sends bodies over the single ingest connection, closed loop:
// the next POST leaves when the previous one is acked. It returns how
// many drift alerts the acks reported. With measured set, the round
// trips and the loop's statement rate become samples.
func (sr *streamRun) ingest(r *result, c *child, bodies [][]byte, measured bool) (alerts int) {
	t0, acked := time.Now(), sr.acked
	for _, body := range bodies {
		r.op(1)
		t := time.Now()
		status, resp, err := c.post("/ingest", body)
		if measured {
			sr.postMS = append(sr.postMS, float64(time.Since(t))/1e6)
		}
		if err != nil || status != 200 {
			r.fail("POST /ingest: status %d, err %v, body %.200s", status, err, resp)
			continue
		}
		var ack ingestAck
		if err := json.Unmarshal(resp, &ack); err != nil {
			r.fail("POST /ingest ack does not parse: %v", err)
			continue
		}
		sr.acked += ack.Ingested
		alerts += ack.Alerts
	}
	if measured {
		sr.rates = append(sr.rates, float64(sr.acked-acked)/time.Since(t0).Seconds())
	}
	return alerts
}

// send takes the next n statements of the trace, marshals them outside
// any clock, ingests them and adds them to the reference window.
func (sr *streamRun) send(e *env, r *result, ref *reference, n, batch int, measured bool) (alerts int, err error) {
	stmts, err := e.take(n)
	if err != nil {
		return 0, err
	}
	bodies, err := ingestBodies(stmts, batch)
	if err != nil {
		return 0, err
	}
	alerts = sr.ingest(r, e.child, bodies, measured)
	ref.add(stmts)
	return alerts, nil
}

// runStream measures a stream workload end to end against the running
// child in two phases, then checks the service's ledger and, for
// stream_durable, kills the child and checks what the restart recovers.
//
// Ingest phase (ingestShare of the time): trace blocks are posted back
// to back, with the drift alerter starting re-solves beside the handler
// as it does in service. Throughput — the median over the blocks — and
// round-trip latency are measured here.
//
// Solve phase (the rest): each step ingests one more block and then
// times one POST /solve at the block's end, when the window holds
// exactly that block: a window that straddles a mix shift needs two
// designs and twice the calibration work, which would make the sample
// bimodal. The solver must be idle when the timed request arrives, or
// the round trip would include somebody else's solve. After the ingest
// phase two untimed forced solves outlast the solve in flight and the
// trigger that may be pending behind it. Within a step, a drift alert
// reported by an ingest ack has started a solve on the idle solver; an
// untimed forced solve before the block's last solveNudge statements
// waits it out and leaves the block's own design installed, so that
// those last statements raise no further alert (if one does, the step
// is not a sample). They do move the window, so the timed solve never
// replays a cached one. Every forced solve, timed or not, is verified
// against the in-process reference.
func runStream(e *env, r *result) error {
	durable := e.cfg.workload == wlStreamDurable
	batch := 1
	if durable {
		batch = durableBatch
	}
	ref := &reference{adv: e.adv}
	sr := &streamRun{}
	start := time.Now()
	elapsed := func() float64 { return time.Since(start).Seconds() }

	for len(sr.rates) == 0 || elapsed() < ingestShare*e.cfg.seconds {
		if _, err := sr.send(e, r, ref, paperBlock, batch, true); err != nil {
			return err
		}
	}
	sr.forcedSolve(r, e.child, ref)
	sr.forcedSolve(r, e.child, ref)
	// A step whose last statements raise an alert is no sample; should
	// every step do so, give up after three times the measured time.
	for elapsed() < e.cfg.seconds || (len(sr.solveMS) == 0 && elapsed() < 3*e.cfg.seconds) {
		alerts, err := sr.send(e, r, ref, paperBlock-solveNudge, batch, false)
		if err != nil {
			return err
		}
		if alerts > 0 {
			sr.forcedSolve(r, e.child, ref)
		}
		if alerts, err = sr.send(e, r, ref, solveNudge, batch, false); err != nil {
			return err
		}
		d := sr.forcedSolve(r, e.child, ref)
		if alerts == 0 {
			sr.solveMS = append(sr.solveMS, float64(d)/1e6)
		}
	}

	// The peak closed-loop rate: one batch per fastest round trip.
	r.set("peak_stmts_per_s", float64(batch)/(fastest(sr.postMS)/1e3), len(sr.postMS))
	r.set("recommend_min_ms", fastest(sr.solveMS), len(sr.solveMS))
	r.set("ingest_stmts_per_s", median(sr.rates), len(sr.rates))
	r.set("solve_forced_p50_ms", median(sr.solveMS), len(sr.solveMS))
	r.set("ingest_p50_ms", median(sr.postMS), len(sr.postMS))
	if p, ok := tailPercentile(len(sr.postMS)); ok {
		r.set("ingest_tail_ms", quantile(sr.postMS, p), len(sr.postMS))
		r.set("ingest_tail_pct", 100*p, 0)
	}

	var h healthz
	r.op(1)
	if r.must(e.child.getJSON(e.child.ingest, "/healthz", &h), "GET /healthz") {
		r.check(h.Ingested == int64(ref.sent) && sr.acked == ref.sent,
			"sent %d statements, acked %d, service ingested %d", ref.sent, sr.acked, h.Ingested)
		r.check(h.Rejected == 0 && h.Shed == 0 && h.SolveErrors == 0,
			"service ledger: rejected %d, shed %d, solve_errors %d", h.Rejected, h.Shed, h.SolveErrors)
	}
	rss := e.child.vmHWMMB()
	if durable {
		rss = max(rss, restartCheck(e, r, ref, sr))
	}
	r.set("peak_rss_mb", max(rss, vmHWMMB("self")), 0)
	return nil
}

// restartCheck SIGKILLs the child, restarts it over the same data dir
// and checks the recovery: every acked statement is back, nothing was
// truncated, and the design the service had installed survived — the
// next forced solve starts from it and again equals the in-process
// answer. It returns the restarted child's peak RSS.
//
// SIGKILL leaves the operating system's page cache intact, so this
// proves the recovery logic, not the device's durability.
func restartCheck(e *env, r *result, ref *reference, sr *streamRun) float64 {
	e.child.kill()
	t0 := time.Now()
	c, err := startChild(e.bin, e.port, e.cfg.rows, e.childArgs...)
	r.op(1)
	if !r.must(err, "restarting advisord over the same data dir") {
		e.child = nil
		return 0
	}
	e.child = c
	var h healthz
	r.op(1)
	if !r.must(c.getJSON(c.ingest, "/healthz", &h), "GET /healthz after restart") {
		return c.vmHWMMB()
	}
	r.set("restart_ready_s", time.Since(t0).Seconds(), 1)
	r.check(h.WindowTotal == int64(sr.acked), "after restart window_total %d != acked %d", h.WindowTotal, sr.acked)
	if r.check(h.Durable != nil, "restarted child reports no durable state"); h.Durable != nil {
		r.check(h.Durable.WALLastSeq == uint64(sr.acked), "after restart wal_last_seq %d != acked %d", h.Durable.WALLastSeq, sr.acked)
		r.check(h.Durable.RecoveryTruncated == 0, "recovery truncated %d bytes of acked WAL", h.Durable.RecoveryTruncated)
	}
	// The published body is not persisted, only the state behind it: the
	// first solve after the restart must start from the design the last
	// pre-kill recommendation ended in.
	before := sr.lastBody
	sr.lastBody = nil
	sr.forcedSolve(r, c, ref)
	if before != nil && sr.lastBody != nil {
		r.check(slices.Equal(sr.lastBody.Initial, lastDesign(before)),
			"after restart the solve starts from %v, the installed design was %v", sr.lastBody.Initial, lastDesign(before))
	}
	return c.vmHWMMB()
}
