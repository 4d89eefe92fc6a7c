package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dyndesign/internal/durable"
	"dyndesign/internal/engine"
	"dyndesign/internal/obs"
	"dyndesign/internal/workload"
)

// traceBatch is statements [from, to) of the shared phased trace as an
// ingest batch.
func traceBatch(t *testing.T, from, to int) []ingestStatement {
	t.Helper()
	trace := phasedTrace(t, 40)
	batch := make([]ingestStatement, 0, to-from)
	for i := from; i < to; i++ {
		batch = append(batch, ingestStatement{SQL: trace.Statements[i].SQL, Label: trace.Labels[i]})
	}
	return batch
}

// postStatus sends one ingest request and returns the status it got.
func postStatus(t *testing.T, client *http.Client, url string, req ingestRequest) int {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url+"/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// ledger is every count an ingest moves.
type ledger struct {
	ingested, batches, windowTotal int64
	walLastSeq                     uint64
	walAppends, walFsyncs          int64
	observed                       int
}

func ledgerOf(svc *service) ledger {
	h := svc.healthz()
	return ledger{h.Ingested, h.Batches, h.WindowTotal, h.Durable.WALLastSeq, h.Durable.WALAppends, h.Durable.WALFsyncs, svc.stream.Observed()}
}

// TestIngestBatchIsOneFrameOneFsync pins group commit where an operator
// reads it: after N batches of 10, /healthz counts 10·N WAL appends and
// exactly N fsyncs (no solve, no snapshot, no rotation ran); a
// single-statement POST is one more of each.
func TestIngestBatchIsOneFrameOneFsync(t *testing.T) {
	svc, _, ts := metricsService(t, serviceConfig{WindowCap: 100})
	const n = 6
	for b := 0; b < n; b++ {
		if out := postIngest(t, ts.Client(), ts.URL, traceBatch(t, 10*b, 10*b+10)); out.Ingested != 10 || out.Window != 10*(b+1) {
			t.Fatalf("batch %d acknowledged as %+v", b, out)
		}
	}
	want := ledger{ingested: 10 * n, batches: n, windowTotal: 10 * n, walLastSeq: 10 * n, walAppends: 10 * n, walFsyncs: n, observed: 10 * n}
	if got := ledgerOf(svc); got != want {
		t.Fatalf("after %d batches of 10: %+v, want %+v", n, got, want)
	}
	status := postStatus(t, ts.Client(), ts.URL, ingestRequest{SQL: traceBatch(t, 60, 61)[0].SQL})
	want = ledger{ingested: 10*n + 1, batches: n + 1, windowTotal: 10*n + 1, walLastSeq: 10*n + 1, walAppends: 10*n + 1, walFsyncs: n + 1, observed: 10*n + 1}
	if got := ledgerOf(svc); status != http.StatusOK || got != want {
		t.Fatalf("after one more single statement (status %d): %+v, want %+v", status, got, want)
	}
}

// TestIngestFailedBatchLeavesNothing pins atomicity: when the WAL refuses
// a batch (the store is gone underneath the service) the request fails
// with 500 and neither the window, the log, the counters nor the drift
// alerter hold any statement of it.
func TestIngestFailedBatchLeavesNothing(t *testing.T) {
	svc, _, ts := metricsService(t, serviceConfig{WindowCap: 100})
	postIngest(t, ts.Client(), ts.URL, traceBatch(t, 0, 10))
	before := ledgerOf(svc)
	if err := svc.store.Close(); err != nil {
		t.Fatal(err)
	}
	if status := postStatus(t, ts.Client(), ts.URL, ingestRequest{Statements: traceBatch(t, 10, 18)}); status != http.StatusInternalServerError {
		t.Fatalf("batch against a closed store: status %d, want 500", status)
	}
	if got := ledgerOf(svc); got != before {
		t.Fatalf("the failed batch left a trace: %+v, before it %+v", got, before)
	}
}

// TestIngestOutlivesItsRequest is the regression for a client that goes
// away between the WAL append and the drift alerter: the batch is in the
// log and the window, so it is ingested — counted, observed (as recovery
// would observe it) and acknowledged. Applied statement by statement
// under the request's context it answered 500 with the batch's first
// statement alone in log and window, and ingested behind window_total.
func TestIngestOutlivesItsRequest(t *testing.T) {
	svc, _, _ := metricsService(t, serviceConfig{WindowCap: 100})
	body, err := json.Marshal(ingestRequest{Statements: traceBatch(t, 0, 10)})
	if err != nil {
		t.Fatal(err)
	}
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body)).WithContext(gone)
	rec := httptest.NewRecorder()
	svc.mux().ServeHTTP(rec, req)
	want := ledger{ingested: 10, batches: 1, windowTotal: 10, walLastSeq: 10, walAppends: 10, walFsyncs: 1, observed: 10}
	if got := ledgerOf(svc); rec.Code != http.StatusOK || got != want {
		t.Fatalf("batch of a departed client (status %d, body %s): %+v, want %+v", rec.Code, rec.Body, got, want)
	}
}

// TestRecoveryAcrossFrameKinds pins on-disk compatibility at the service:
// a data dir holding one "stmt" frame per statement — all a WAL written
// before batch frames can hold — and one holding the same stream as
// batch frames recover to the same window and the same forced solve.
func TestRecoveryAcrossFrameKinds(t *testing.T) {
	adv := testAdvisor(t)
	stream := traceBatch(t, 0, 70)
	recovered := func(write func(*durable.Store)) (string, string) {
		dir := t.TempDir()
		store, err := durable.Open(dir, durable.Options{})
		if err != nil {
			t.Fatal(err)
		}
		write(store)
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		if store, err = durable.Open(dir, durable.Options{}); err != nil {
			t.Fatal(err)
		}
		svc, err := newService(adv, serviceConfig{WindowCap: 50, MinSolve: -1, K: 2, SegmentSize: 5, Store: store})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.close()
		if h := svc.healthz(); h.WindowTotal != 70 || h.Durable.WALLastSeq != 70 || h.Durable.RecoveryReplayed != 70 || svc.stream.Observed() != 70 {
			t.Fatalf("recovered ledger %+v / %+v, alerter saw %d", h, h.Durable, svc.stream.Observed())
		}
		win, err := json.Marshal(svc.win.State())
		if err != nil {
			t.Fatal(err)
		}
		rec, err := svc.solveOnce(context.Background(), "forced")
		if err != nil {
			t.Fatal(err)
		}
		return string(win), string(solutionBytes(t, rec))
	}
	oldWin, oldSolve := recovered(func(store *durable.Store) {
		for _, st := range stream {
			if _, err := store.AppendStatement(st.Label, st.SQL); err != nil {
				t.Fatal(err)
			}
		}
	})
	newWin, newSolve := recovered(func(store *durable.Store) {
		for i := 0; i < len(stream); i += 10 {
			logged := make([]durable.Statement, 10)
			for j, st := range stream[i : i+10] {
				logged[j] = durable.Statement{Label: st.Label, SQL: st.SQL}
			}
			if _, err := store.AppendBatch(logged); err != nil {
				t.Fatal(err)
			}
		}
	})
	if oldWin != newWin {
		t.Fatalf("windows differ:\nstmt frames:  %s\nbatch frames: %s", oldWin, newWin)
	}
	if oldSolve != newSolve {
		t.Fatalf("forced solves differ:\nstmt frames:  %s\nbatch frames: %s", oldSolve, newSolve)
	}
}

// engineRefused are statements that parse and that the engine refuses
// before it touches a row: the wrong arity, the wrong kinds, an unknown
// column, or another table. Ingest validation accepted all seven when it
// priced with its own scalar coster.
var engineRefused = []string{
	"INSERT INTO t VALUES (1)",
	"INSERT INTO t VALUES ('x','y','z','w')",
	"INSERT INTO t (a, zz) VALUES (1, 2)",
	"UPDATE t SET zz = 1 WHERE a = 1",
	"UPDATE t SET a = 'x' WHERE a = 1",
	"SELECT a FROM nowhere WHERE a = 1",
	"DELETE FROM nowhere WHERE a = 1",
}

// TestIngestRejectsWhatTheEngineRejects pins that ingest accepts no
// statement the engine would refuse: each of engineRefused, alone or
// after a valid statement in one batch, gets a 400 and leaves the
// window, the log, the counters and the drift alerter as they were.
func TestIngestRejectsWhatTheEngineRejects(t *testing.T) {
	db := engine.New()
	db.MustExec("CREATE TABLE t (a INT, b INT, c INT, d INT)")
	svc, _, ts := metricsService(t, serviceConfig{WindowCap: 100})
	valid := traceBatch(t, 0, 1)[0]
	for _, text := range engineRefused {
		if _, err := db.Exec(text); err == nil {
			t.Fatalf("the engine executed %q", text)
		}
		before := ledgerOf(svc)
		for _, req := range []ingestRequest{
			{SQL: text},
			{Statements: []ingestStatement{valid, {SQL: text}}},
		} {
			if status := postStatus(t, ts.Client(), ts.URL, req); status != http.StatusBadRequest {
				t.Errorf("%q: status %d, want 400", text, status)
			}
			if got := ledgerOf(svc); got != before {
				t.Errorf("%q left a trace: %+v, before it %+v", text, got, before)
			}
		}
	}
}

// TestRecoveryRejectsRefusedRecord: a WAL written before ingest
// validated like the engine may hold a statement the engine refuses.
// Recovery stops at that record with a recordError naming its sequence
// number, as it does at a record that no longer parses, and the service
// does not start.
func TestRecoveryRejectsRefusedRecord(t *testing.T) {
	adv := testAdvisor(t)
	valid := traceBatch(t, 0, 1)[0]
	for _, text := range append([]string{"SELECT a FROM t WHERE"}, engineRefused...) {
		dir := t.TempDir()
		store, err := durable.Open(dir, durable.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := store.AppendBatch([]durable.Statement{{Label: valid.Label, SQL: valid.SQL}, {SQL: text}}); err != nil {
			t.Fatal(err)
		}
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		if store, err = durable.Open(dir, durable.Options{}); err != nil {
			t.Fatal(err)
		}
		svc, err := newService(adv, serviceConfig{WindowCap: 50, MinSolve: -1, Store: store})
		var rec *recordError
		if !errors.As(err, &rec) || rec.Seq != 2 {
			if svc != nil {
				svc.close()
			}
			t.Fatalf("recovering a WAL whose record 2 is %q: service %v, error %v; want a recordError for record 2", text, svc != nil, err)
		}
		store.Close()
	}
}

// FuzzIngestBody feeds POST /ingest — the one decoder of foreign bytes
// in the service — arbitrary bodies against an in-memory service. The
// answer is 200, 400 or 413, never a panic; the ingested count and the
// window move by exactly the acknowledged number of statements, and not
// at all unless the answer is 200.
func FuzzIngestBody(f *testing.F) {
	svc, err := newService(testAdvisor(f), serviceConfig{WindowCap: 16, MinSolve: -1, MaxBody: 1 << 10})
	if err != nil {
		f.Fatal(err)
	}
	handler := svc.mux()
	for _, seed := range []string{
		`{"sql":"SELECT a FROM t WHERE a = 1","label":"A"}`,
		`{"statements":[{"sql":"SELECT a FROM t WHERE a = 1"},{"sql":"UPDATE t SET b = 2 WHERE c = 3","label":"B"}]}`,
		`{"sql":"SELECT a FROM t WHERE a = 1","statements":[{"sql":"DELETE FROM t WHERE d = 4"}]}`,
		`{"statements":[{"sql":"SELECT a FROM t WHERE a = 1"},{"sql":"SELECT nonsense FROM nowhere"}]}`,
		`{"statements":[]}`,
		`{"statements":[{}]}`,
		`{"statements":{"sql":1}}`,
		`{"sql":"INSERT INTO t VALUES (1, 2, 3, 4)"} trailing`,
		`{"sql":"SELECT a FROM t WHERE a = 1","label":"` + strings.Repeat("x", 2<<10) + `"}`,
		`[`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		before := svc.healthz()
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body)))
		after := svc.healthz()
		moved := after.Ingested - before.Ingested
		if after.WindowTotal-before.WindowTotal != moved || int64(svc.stream.Observed()) != after.Ingested {
			t.Fatalf("%q: ingested moved by %d, window_total by %d, the alerter has seen %d of %d",
				body, moved, after.WindowTotal-before.WindowTotal, svc.stream.Observed(), after.Ingested)
		}
		switch rec.Code {
		case http.StatusOK:
			var out ingestResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || out.Ingested < 1 || moved != int64(out.Ingested) {
				t.Fatalf("%q: acknowledged %s (err %v), ingested moved by %d", body, rec.Body, err, moved)
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			if moved != 0 {
				t.Fatalf("%q: status %d, yet ingested moved by %d", body, rec.Code, moved)
			}
		default:
			t.Fatalf("%q: status %d: %s", body, rec.Code, rec.Body)
		}
	})
}

// TestRecoveryDropsRefusedSnapshotStatements: a hand-built snapshot
// whose window holds statements ingest refuses today — a snapshot
// written before ingest and the engine shared one check could — is
// restored without them. /healthz and advisord_recovery_dropped count
// them, the WAL tail replays after them, and the forced solve succeeds
// and equals that of a service restored from the same snapshot with the
// statements never in it.
func TestRecoveryDropsRefusedSnapshotStatements(t *testing.T) {
	adv := testAdvisor(t)
	stream := traceBatch(t, 0, 60)
	recovered := func(window []ingestStatement) (*service, map[string]float64) {
		dir := t.TempDir()
		store, err := durable.Open(dir, durable.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range stream {
			if _, err := store.AppendStatement(st.Label, st.SQL); err != nil {
				t.Fatal(err)
			}
		}
		state := workload.WindowState{Name: "advisord", Cap: 50, Total: 40, Seq: 40}
		for _, st := range window {
			state.Statements = append(state.Statements, workload.WindowStatement{Label: st.Label, SQL: st.SQL})
		}
		if err := store.WriteSnapshot(&durable.Snapshot{Seq: 40, Window: state, StatsFingerprint: adv.StatsFingerprint()}); err != nil {
			t.Fatal(err)
		}
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		if store, err = durable.Open(dir, durable.Options{}); err != nil {
			t.Fatal(err)
		}
		gauges := obs.NewGaugeSet()
		svc, err := newService(adv, serviceConfig{WindowCap: 50, MinSolve: -1, K: 2, SegmentSize: 5, Store: store, Gauges: gauges})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = svc.close() })
		return svc, scrape(t, gauges)
	}
	var dirty []ingestStatement
	for i, st := range stream[:40] {
		dirty = append(dirty, st)
		if i%6 == 3 {
			dirty = append(dirty, ingestStatement{SQL: engineRefused[i/6], Label: "refused"})
		}
	}
	svc, metrics := recovered(dirty)
	clean, _ := recovered(stream[:40])
	h := svc.healthz()
	if h.Durable.RecoveryDropped != 7 || metrics["advisord_recovery_dropped"] != 7 {
		t.Errorf("dropped %d statements, metric %v; want 7", h.Durable.RecoveryDropped, metrics["advisord_recovery_dropped"])
	}
	if h.WindowStatements != 50 || h.WindowTotal != 60 || h.Durable.RecoveryReplayed != 20 {
		t.Errorf("recovered %d statements of %d in all, %d replayed; want 50, 60, 20", h.WindowStatements, h.WindowTotal, h.Durable.RecoveryReplayed)
	}
	if d := clean.healthz().Durable.RecoveryDropped; d != 0 {
		t.Errorf("a clean snapshot dropped %d statements", d)
	}
	got, err := svc.solveOnce(context.Background(), "forced")
	if err != nil {
		t.Fatalf("forced solve after recovery: %v", err)
	}
	want, err := clean.solveOnce(context.Background(), "forced")
	if err != nil {
		t.Fatal(err)
	}
	if g, w := solutionBytes(t, got), solutionBytes(t, want); !bytes.Equal(g, w) {
		t.Fatalf("forced solves differ:\ndropped: %s\nclean:   %s", g, w)
	}
}
