package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"dyndesign/internal/obs"
)

// heldCalibration is a running service whose calibrator the test holds:
// every replay announces its solve id on entered and then waits for one
// token on release.
type heldCalibration struct {
	svc     *service
	gauges  *obs.GaugeSet
	ts      *httptest.Server
	audit   string
	entered chan uint64
	release chan struct{}
	// shutdown cancels the solver, waits for it and closes the service —
	// which stops the calibrator. Idempotent; also the test's cleanup.
	shutdown func()
}

func holdCalibration(t *testing.T) *heldCalibration {
	t.Helper()
	h := &heldCalibration{
		gauges:  obs.NewGaugeSet(),
		audit:   filepath.Join(t.TempDir(), "solves.jsonl"),
		entered: make(chan uint64, 8), // more than any test's replays: the hook never blocks on it
		release: make(chan struct{}, 8),
	}
	svc, err := newService(testAdvisor(t), serviceConfig{
		WindowCap:    50,
		MinSolve:     -1,
		K:            2,
		SegmentSize:  5,
		CalibSamples: 6,
		CalibSeed:    1,
		AuditPath:    h.audit,
		Gauges:       h.gauges,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.calibHook = func(id uint64) {
		h.entered <- id
		<-h.release
	}
	h.svc = svc
	ctx, cancel := context.WithCancel(context.Background())
	solverDone := make(chan struct{})
	go func() { defer close(solverDone); svc.run(ctx) }()
	h.ts = httptest.NewServer(svc.mux())
	var once sync.Once
	h.shutdown = func() {
		once.Do(func() {
			h.ts.Close()
			cancel()
			<-solverDone
			if err := svc.close(); err != nil {
				t.Errorf("closing service: %v", err)
			}
		})
	}
	t.Cleanup(func() {
		close(h.release) // a replay still held must not wedge the shutdown
		h.shutdown()
	})
	ingestTrace(t, h.ts.Client(), h.ts.URL, 0, 40)
	return h
}

// solve forces one synchronous solve and fails unless it publishes.
func (h *heldCalibration) solve(t *testing.T) {
	t.Helper()
	resp, err := h.ts.Client().Post(h.ts.URL+"/solve", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /solve status %d", resp.StatusCode)
	}
}

func (h *heldCalibration) solves(t *testing.T) solvesResponse {
	t.Helper()
	resp, err := h.ts.Client().Get(h.ts.URL + "/solves")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out solvesResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding /solves: %v", err)
	}
	return out
}

// awaitEntered waits for the next replay to start and returns its solve id.
func (h *heldCalibration) awaitEntered(t *testing.T) uint64 {
	t.Helper()
	select {
	case id := <-h.entered:
		return id
	case <-time.After(30 * time.Second):
		t.Fatal("no calibration replay started")
		return 0
	}
}

// awaitCalibrated polls /solves until solve id's record carries a
// calibration summary.
func (h *heldCalibration) awaitCalibrated(t *testing.T, id uint64) solvesResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		out := h.solves(t)
		for _, r := range out.Solves {
			if r.SolveID == id && r.Calibration != nil {
				return out
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("solve %d never gained a calibration summary: %+v", id, out.Solves)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSolveAnswersBeforeCalibration pins that a solve answers at
// publication: POST /solve returns, and its lineage record and the
// last-solve metrics are there, while the recommendation's replay has
// not measured a single statement. The summary arrives later, amended
// into the same record.
func TestSolveAnswersBeforeCalibration(t *testing.T) {
	h := holdCalibration(t)
	h.solve(t)
	if id := h.awaitEntered(t); id != 1 {
		t.Fatalf("replay started for solve %d, want 1", id)
	}
	got := h.solves(t)
	if got.Count != 1 || got.Solves[0].SolveID != 1 || got.Solves[0].Rung == "" {
		t.Fatalf("POST /solve returned but /solves does not show it: %+v", got)
	}
	if got.Solves[0].Calibration != nil {
		t.Fatalf("record carries a calibration summary while the replay is held: %+v", got.Solves[0])
	}
	m := scrape(t, h.gauges)
	if _, ok := m["advisord_solve_cost"]; !ok || m["advisord_calib_runs_total"] != 0 {
		t.Fatalf("while the replay is held: solve_cost listed = %v, calib runs = %v", ok, m["advisord_calib_runs_total"])
	}
	if n := len(readAuditRecords(t, h.audit)); n != 1 {
		t.Fatalf("audit log holds %d lines at publication, want the solve's own", n)
	}

	h.release <- struct{}{}
	after := h.awaitCalibrated(t, 1)
	if cal := after.Solves[0].Calibration; cal.Samples == 0 || cal.MedianAbsRatio < 1 {
		t.Fatalf("implausible amended summary: %+v", cal)
	}
	if m := scrape(t, h.gauges); m["advisord_calib_runs_total"] != 1 || m["advisord_calib_errors_total"] != 0 {
		t.Fatalf("after the replay: %v runs, %v errors", m["advisord_calib_runs_total"], m["advisord_calib_errors_total"])
	}
}

// TestCalibrationLatestWins pins the mailbox: publishes that arrive
// while a replay is running wait in one slot, a newer one replaces the
// one waiting (counted as superseded), and the running replay is left to
// finish — so three publishes against one held replay cost two replays.
func TestCalibrationLatestWins(t *testing.T) {
	h := holdCalibration(t)
	h.solve(t)
	if id := h.awaitEntered(t); id != 1 {
		t.Fatalf("replay started for solve %d, want 1", id)
	}
	h.solve(t) // waits in the mailbox
	h.solve(t) // replaces it
	if m := scrape(t, h.gauges); m["advisord_calib_superseded_total"] != 1 {
		t.Fatalf("advisord_calib_superseded_total = %v, want 1", m["advisord_calib_superseded_total"])
	}
	h.release <- struct{}{}
	if id := h.awaitEntered(t); id != 3 {
		t.Fatalf("second replay is for solve %d, want the newest (3)", id)
	}
	h.release <- struct{}{}
	h.awaitCalibrated(t, 3)
	h.shutdown() // waits for the calibrator: no replay can start after this

	select {
	case id := <-h.entered:
		t.Fatalf("a third replay ran, for solve %d", id)
	default:
	}
	recs, _ := h.svc.lineage.list()
	if len(recs) != 3 {
		t.Fatalf("ring holds %d records, want 3", len(recs))
	}
	for _, r := range recs {
		if want := r.SolveID != 2; (r.Calibration != nil) != want {
			t.Errorf("solve %d: has calibration summary = %v, want %v", r.SolveID, r.Calibration != nil, want)
		}
	}
	if rep := h.svc.calibMon.Report(); rep.Runs != 2 {
		t.Errorf("monitor folded in %d runs, want 2", rep.Runs)
	}
	// The audit log: each solve's own line, in order and without a
	// summary, then one follow-up line per finished replay.
	var ids []uint64
	var summaries []bool
	for _, r := range readAuditRecords(t, h.audit) {
		ids = append(ids, r.SolveID)
		summaries = append(summaries, r.Calibration != nil)
	}
	if !reflect.DeepEqual(ids, []uint64{1, 2, 3, 1, 3}) || !reflect.DeepEqual(summaries, []bool{false, false, false, true, true}) {
		t.Errorf("audit log lines: solve ids %v, carrying a summary %v", ids, summaries)
	}
}

// TestCloseStopsCalibrator pins shutdown: close cancels the replay in
// flight and returns only once the calibrator goroutine has exited, the
// cancelled replay is neither an error nor a summary, the table's index
// set is what it was, and an amendment that arrives after close writes
// nothing.
func TestCloseStopsCalibrator(t *testing.T) {
	h := holdCalibration(t)
	before, err := testDB.IndexNames("t")
	if err != nil {
		t.Fatal(err)
	}
	h.solve(t)
	h.awaitEntered(t)
	closed := make(chan struct{})
	go func() { defer close(closed); h.shutdown() }()
	select {
	case <-closed:
		t.Fatal("close returned while a replay was still in flight")
	case <-time.After(200 * time.Millisecond):
	}
	h.release <- struct{}{}
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("close never returned after the replay was released")
	}
	select {
	case <-h.svc.calibDone:
	default:
		t.Fatal("close returned with the calibrator goroutine still running")
	}
	if n := h.svc.calibErrors.Load(); n != 0 {
		t.Errorf("a replay cancelled by shutdown counted as %d calibration errors", n)
	}
	if rep := h.svc.calibMon.Report(); rep.Runs != 0 {
		t.Errorf("a cancelled replay was folded into the monitor: %+v", rep)
	}
	after, err := testDB.IndexNames("t")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after, before) {
		t.Errorf("index set after shutdown is %v, before the replay it was %v", after, before)
	}
	h.svc.lineage.amend(1, &calibSummary{Samples: 1})
	if _, auditErrs := h.svc.lineage.list(); auditErrs != 0 {
		t.Errorf("an amendment after close tried to write the closed audit file (%d errors)", auditErrs)
	}
	if n := len(readAuditRecords(t, h.audit)); n != 1 {
		t.Errorf("audit log holds %d lines, want only the solve's own", n)
	}
}
