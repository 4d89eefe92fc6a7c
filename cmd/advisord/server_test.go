package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dyndesign/internal/advisor"
	"dyndesign/internal/alerter"
	"dyndesign/internal/candidates"
	"dyndesign/internal/core"
	"dyndesign/internal/durable"
	"dyndesign/internal/engine"
	"dyndesign/internal/experiments"
	"dyndesign/internal/obs"
	"dyndesign/internal/workload"
)

const testRows = 20000

var (
	advOnce sync.Once
	advErr  error
	testAdv *advisor.Advisor
	testDB  *engine.Database
)

// testAdvisor builds the paper table once per test binary — the
// expensive fixture every service test shares. The advisor itself is
// stateless across recommendations, so sharing is safe.
func testAdvisor(t testing.TB) *advisor.Advisor {
	t.Helper()
	advOnce.Do(func() {
		db, err := experiments.SetupPaperDatabase(experiments.Scale{Rows: testRows, BlockSize: 1, Seed: 1})
		if err != nil {
			advErr = err
			return
		}
		testDB = db
		structures := candidates.PaperStructures("t")
		testAdv, advErr = advisor.New(db, advisor.DesignSpace{
			Table:      "t",
			Structures: structures,
			Configs:    advisor.SingleIndexConfigs(len(structures)),
		})
	})
	if advErr != nil {
		t.Fatal(advErr)
	}
	return testAdv
}

// phasedTrace builds a drifting statement stream: phase A (selects
// mostly on column a) followed by phase C (mostly on column c), the
// shape that forces the installed design out from under the window.
func phasedTrace(t *testing.T, perPhase int) *workload.Workload {
	t.Helper()
	w, err := workload.GeneratePhased("drift", workload.PaperMixes(testRows), []workload.PhaseSpec{
		{Mix: "A", Count: perPhase},
		{Mix: "C", Count: perPhase},
	}, 7)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func postIngest(t *testing.T, client *http.Client, url string, batch []ingestStatement) ingestResponse {
	t.Helper()
	body, err := json.Marshal(ingestRequest{Statements: batch})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url+"/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out ingestResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /ingest status %d", resp.StatusCode)
	}
	return out
}

// readAuditRecords parses the solve audit JSONL, failing on any line
// that does not decode as a solveRecord.
func readAuditRecords(t *testing.T, path string) []solveRecord {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("opening solve audit log: %v", err)
	}
	defer f.Close()
	var out []solveRecord
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var rec solveRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("audit line %d does not parse: %v\n%s", len(out)+1, err, sc.Text())
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// promLine matches one Prometheus text-exposition sample, with
// escaped-quote-aware label values.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{([a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*",?)*\})? [^ ]+$`)

// familyName is what every advisord metric family must be called.
var familyName = regexp.MustCompile(`^advisord_[a-z0-9_]+$`)

// assertPrometheusParses lints a text exposition and returns its
// label-free samples by name: every non-comment line is a well-formed
// sample, every sample belongs to a family that carries both HELP and
// TYPE, no family is declared twice, names match familyName, and a
// family is a counter exactly when its name ends in _total.
func assertPrometheusParses(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := map[string]float64{}
	help, kind := map[string]bool{}, map[string]string{}
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		switch {
		case line == "":
		case strings.HasPrefix(line, "# HELP ") && len(fields) >= 3:
			if help[fields[2]] {
				t.Errorf("family %s has two HELP lines", fields[2])
			}
			help[fields[2]] = true
		case strings.HasPrefix(line, "# TYPE ") && len(fields) == 4:
			if kind[fields[2]] != "" {
				t.Errorf("family %s is declared twice", fields[2])
			}
			kind[fields[2]] = fields[3]
		case strings.HasPrefix(line, "#"):
		case !promLine.MatchString(line):
			t.Errorf("unparseable exposition line: %q", line)
		default:
			name := line[:strings.IndexAny(line, "{ ")]
			family := name
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base := strings.TrimSuffix(name, suffix); kind[base] == "histogram" {
					family = base
				}
			}
			if kind[family] == "" || !help[family] {
				t.Errorf("sample %q: family %s lacks HELP or TYPE (or they follow the sample)", line, family)
			}
			if v, err := strconv.ParseFloat(fields[len(fields)-1], 64); err != nil {
				t.Errorf("sample %q: value does not parse: %v", line, err)
			} else if name == fields[0] {
				samples[name] = v
			}
		}
	}
	for name, k := range kind {
		if !familyName.MatchString(name) {
			t.Errorf("family name %q does not match %s", name, familyName)
		}
		if strings.HasSuffix(name, "_total") != (k == "counter") {
			t.Errorf("family %s has TYPE %s: _total names, and only those, are counters", name, k)
		}
	}
	return samples
}

func getHealthz(t *testing.T, client *http.Client, url string) healthzResponse {
	t.Helper()
	resp, err := client.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h healthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestAdvisordSmoke is the end-to-end service exercise `make
// advisord-smoke` runs: start the server, stream a phase-shifting trace
// through POST /ingest, and assert that the drift alerter (not a timer)
// forced at least one re-solve and that GET /recommendation parses.
func TestAdvisordSmoke(t *testing.T) {
	adv := testAdvisor(t)
	dataDir := t.TempDir()
	store, err := durable.Open(dataDir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gauges := obs.NewGaugeSet()
	hists := obs.NewHistogramSet()
	svc, err := newService(adv, serviceConfig{
		WindowCap:    100,
		MinSolve:     40,
		K:            2,
		SegmentSize:  5,
		Timeout:      30 * time.Second,
		Fallback:     true,
		Explain:      true,
		CalibSamples: 8,
		CalibSeed:    1,
		AuditPath:    filepath.Join(dataDir, "solves.jsonl"),
		Store:        store,
		Alerter:      alerter.Options{WindowSize: 60, CheckEvery: 20},
		Gauges:       gauges,
		Hists:        hists,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	solverDone := make(chan struct{})
	go func() { defer close(solverDone); svc.run(ctx) }()

	ts := httptest.NewServer(svc.mux())
	defer ts.Close()
	client := ts.Client()

	// No recommendation before the window warms up.
	resp, err := client.Get(ts.URL + "/recommendation")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("empty-service /recommendation status %d, want 503", resp.StatusCode)
	}

	// Stream the drifting trace in batches, like a workload collector
	// would — one that lets the solver catch up at the two points the
	// assertions below rest on, so every solve sees the same window
	// however fast ingest runs: the initial solve answers the 40-statement
	// warm-up before the rest of phase A arrives, and the re-solve the
	// first drift alert forces answers the window that alert fired on.
	deadline := time.Now().Add(60 * time.Second)
	waitResolves := func(n int64) healthzResponse {
		t.Helper()
		for {
			h := getHealthz(t, client, ts.URL)
			if h.Resolves >= n {
				return h
			}
			if time.Now().After(deadline) {
				t.Fatalf("solve %d never landed: %+v", n, h)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	trace := phasedTrace(t, 120)
	alerts := 0
	for i := 0; i < trace.Len(); i += 20 {
		end := i + 20
		if end > trace.Len() {
			end = trace.Len()
		}
		batch := make([]ingestStatement, 0, end-i)
		for j := i; j < end; j++ {
			batch = append(batch, ingestStatement{SQL: trace.Statements[j].SQL, Label: trace.Labels[j]})
		}
		out := postIngest(t, client, ts.URL, batch)
		if out.Ingested != len(batch) {
			t.Fatalf("batch at %d: ingested %d of %d", i, out.Ingested, len(batch))
		}
		if end == 40 {
			waitResolves(1)
		}
		if out.Alerts > 0 && alerts == 0 {
			waitResolves(2)
		}
		alerts += out.Alerts
	}

	// The drift alerter (not a timer) forced the re-solve.
	h := waitResolves(2)
	if h.DriftAlerts < 1 {
		t.Fatalf("no drift re-solve: %+v", h)
	}
	if h.SolveErrors != 0 {
		t.Fatalf("solve errors: %+v", h)
	}
	if h.Ingested != int64(trace.Len()) {
		t.Fatalf("ingested %d, want %d", h.Ingested, trace.Len())
	}
	if h.WindowStatements != 100 {
		t.Fatalf("window fill %d, want capacity 100", h.WindowStatements)
	}

	// The published recommendation must parse and describe the window.
	resp, err = client.Get(ts.URL + "/recommendation")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/recommendation status %d", resp.StatusCode)
	}
	var rec recResponse
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatalf("decoding /recommendation: %v", err)
	}
	if rec.Table != "t" || rec.Statements == 0 || len(rec.Designs) == 0 {
		t.Fatalf("implausible recommendation: %+v", rec)
	}
	if rec.Cost <= 0 {
		t.Fatalf("recommendation cost %v", rec.Cost)
	}
	if rec.Explanation == nil || len(rec.Explanation.Transitions) == 0 {
		t.Fatal("recommendation carries no provenance")
	}

	// Calibration runs on the solver goroutine strictly after each
	// publish, so the report can lag the resolve counter; wait for the
	// monitor to fold in at least one replay and the lineage ring to
	// carry both solves.
	var cal calibrationResponse
	var solves solvesResponse
	for {
		resp, err := client.Get(ts.URL + "/calibration")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&cal)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decoding /calibration: %v", err)
		}
		resp, err = client.Get(ts.URL + "/solves")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&solves)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decoding /solves: %v", err)
		}
		if cal.Report.Runs >= 1 && solves.Count >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("calibration/lineage never landed: %+v / %+v", cal, solves)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !cal.Enabled || cal.Report.Samples == 0 {
		t.Fatalf("implausible calibration report: %+v", cal)
	}
	if cal.Report.MedianAbsRatio < 1 {
		t.Fatalf("absolute error ratio below 1 is impossible: %+v", cal.Report)
	}
	if cal.CalibrationErrors != 0 {
		t.Fatalf("calibration replays failed: %+v", cal)
	}

	// Lineage: newest-first records correlating trigger, window slice,
	// WAL cursor, answering rung, and calibration summary.
	newest := solves.Solves[0]
	if newest.SolveID == 0 || newest.Rung == "" || newest.WindowEnd == 0 {
		t.Fatalf("implausible lineage record: %+v", newest)
	}
	if newest.WindowStart >= newest.WindowEnd {
		t.Fatalf("lineage window range [%d, %d) is empty", newest.WindowStart, newest.WindowEnd)
	}
	if newest.WALLastSeq == 0 {
		t.Fatalf("lineage record lost the WAL cursor: %+v", newest)
	}
	hasDrift, hasCalib := false, false
	for _, r := range solves.Solves {
		if r.Reason == "drift" {
			hasDrift = true
		}
		if r.Calibration != nil && r.Calibration.Samples > 0 {
			hasCalib = true
		}
	}
	if !hasDrift {
		t.Fatalf("no lineage record names the drift trigger: %+v", solves.Solves)
	}
	if !hasCalib {
		t.Fatalf("no lineage record carries a calibration summary: %+v", solves.Solves)
	}

	// The durable audit log mirrors the ring: one parseable JSON line
	// per solve attempt.
	auditLines := readAuditRecords(t, filepath.Join(dataDir, "solves.jsonl"))
	if len(auditLines) < solves.Count {
		t.Fatalf("audit log has %d records, ring has %d", len(auditLines), solves.Count)
	}

	// The metrics exposition — the exact bytes /metrics serves for these
	// registries — must parse, with the calibration and latency families
	// populated.
	var mbuf bytes.Buffer
	if err := hists.WritePrometheus(&mbuf); err != nil {
		t.Fatal(err)
	}
	if err := gauges.WritePrometheus(&mbuf); err != nil {
		t.Fatal(err)
	}
	metricsText := mbuf.String()
	assertPrometheusParses(t, metricsText)
	for _, family := range []string{
		"advisord_calib_runs_total",
		"advisord_calib_median_abs_ratio",
		"advisord_calib_trend",
		"advisord_recommendation_age_seconds",
		"advisord_last_solve_seconds",
		"advisord_solve_seconds_bucket",
		"advisord_ingest_seconds_bucket",
	} {
		if !strings.Contains(metricsText, family) {
			t.Errorf("metrics exposition missing %s:\n%s", family, metricsText)
		}
	}
	if hists.Count("advisord_solve_seconds") < 2 || hists.Count("advisord_ingest_seconds") == 0 {
		t.Fatalf("latency histograms not populated: solve %d ingest %d",
			hists.Count("advisord_solve_seconds"), hists.Count("advisord_ingest_seconds"))
	}

	// Persist the calibration report for CI artifact upload, mirroring
	// the crash harness's ADVISORD_CRASH_ARTIFACTS convention.
	if dir := os.Getenv("ADVISORD_CALIB_ARTIFACTS"); dir != "" {
		_ = os.MkdirAll(dir, 0o755)
		buf, err := json.MarshalIndent(cal, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "calibration.json")
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatalf("writing calibration artifact: %v", err)
		}
		t.Logf("calibration artifact: %s", path)
	}

	// Bad statements are rejected atomically with a 400.
	body, _ := json.Marshal(ingestRequest{SQL: "SELECT nonsense FROM nowhere"})
	resp, err = client.Post(ts.URL+"/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad-statement ingest status %d, want 400", resp.StatusCode)
	}

	cancel()
	select {
	case <-solverDone:
	case <-time.After(5 * time.Second):
		t.Fatal("solver goroutine did not exit on cancel")
	}

	// Teardown must release the data dir completely: the LOCK file is
	// gone and a fresh store can open (and recover) the directory — the
	// check that catches leaked lock files in CI.
	if err := svc.close(); err != nil {
		t.Fatalf("closing service: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dataDir, "LOCK")); !os.IsNotExist(err) {
		t.Fatalf("LOCK file leaked after shutdown: %v", err)
	}
	reopened, err := durable.Open(dataDir, durable.Options{})
	if err != nil {
		t.Fatalf("data dir not reopenable after shutdown: %v", err)
	}
	snap, _, err := reopened.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || len(snap.Window.Statements) == 0 {
		t.Fatalf("final snapshot missing or empty: %+v", snap)
	}
	if err := reopened.Close(); err != nil {
		t.Fatal(err)
	}
}

// solutionBytes canonicalizes the part of a recommendation the
// equivalence contract covers: the solved design sequence and the DDL
// steps derived from it.
func solutionBytes(t *testing.T, rec *advisor.Recommendation) []byte {
	t.Helper()
	buf, err := json.Marshal(struct {
		Solution *core.Solution
		Steps    []advisor.Step
	}{rec.Solution, rec.Steps()})
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestAdvisordIncrementalMatchesOneShot is the incremental ≡ one-shot
// equivalence gate: a windowed re-solve that warm-starts from the
// retained memo, solve cache, and chained initial configuration must be
// byte-identical to a cold advisor.RecommendContext over the same
// window — on the serial path and with Parallelism = 4.
func TestAdvisordIncrementalMatchesOneShot(t *testing.T) {
	adv := testAdvisor(t)
	trace := phasedTrace(t, 80)
	for _, par := range []int{1, 4} {
		par := par
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			svc, err := newService(adv, serviceConfig{
				WindowCap:   120,
				MinSolve:    1,
				K:           2,
				SegmentSize: 5,
				Parallelism: par,
				Alerter:     alerter.Options{},
			})
			if err != nil {
				t.Fatal(err)
			}
			// Drive the stream synchronously: append and re-solve every
			// 40 statements, so the final solve warm-starts from four
			// earlier windows' worth of retained state.
			var warm *advisor.Recommendation
			for i, stmt := range trace.Statements {
				svc.mu.Lock()
				svc.win.Append(trace.Labels[i], stmt)
				svc.mu.Unlock()
				if (i+1)%40 == 0 || i == trace.Len()-1 {
					warm, err = svc.solveOnce(context.Background(), "test")
					if err != nil {
						t.Fatalf("warm solve at %d: %v", i, err)
					}
				}
			}
			if warm == nil || warm.Solution == nil {
				t.Fatal("no warm recommendation")
			}
			if st := svc.memo.Stats(); st.Hits == 0 {
				t.Fatalf("retained memo never hit across windows: %+v", st)
			}

			// Cold one-shot over the same window: fresh memo, fresh
			// cache, same options (the warm solve's Initial is the
			// design chained from the previous window's adoption).
			svc.mu.Lock()
			w := svc.win.Snapshot()
			svc.mu.Unlock()
			for _, coldPar := range []int{1, 4} {
				cold, err := adv.RecommendContext(context.Background(), w, advisor.Options{
					K:           2,
					SegmentSize: 5,
					Initial:     warm.Problem.Initial,
					Parallelism: coldPar,
				})
				if err != nil {
					t.Fatalf("cold solve (par %d): %v", coldPar, err)
				}
				if got, want := solutionBytes(t, cold), solutionBytes(t, warm); !bytes.Equal(got, want) {
					t.Fatalf("incremental (par %d) and one-shot (par %d) recommendations differ:\nwarm: %s\ncold: %s",
						par, coldPar, want, got)
				}
			}
		})
	}
}

// TestAdvisordIngestValidation pins the HTTP error contract: wrong
// methods, empty batches, and unparsable bodies are rejected without
// touching the window.
func TestAdvisordIngestValidation(t *testing.T) {
	adv := testAdvisor(t)
	svc, err := newService(adv, serviceConfig{WindowCap: 10, MinSolve: 5})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.mux())
	defer ts.Close()
	client := ts.Client()

	for _, tc := range []struct {
		method, path, body string
		want               int
	}{
		{http.MethodGet, "/ingest", "", http.StatusMethodNotAllowed},
		{http.MethodPost, "/ingest", "{}", http.StatusBadRequest},
		{http.MethodPost, "/ingest", "not json", http.StatusBadRequest},
		{http.MethodPost, "/ingest", `{"sql": "DROP TABLE t"}`, http.StatusBadRequest},
		{http.MethodPost, "/recommendation", "", http.StatusMethodNotAllowed},
		{http.MethodPost, "/healthz", "", http.StatusMethodNotAllowed},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s (%q): status %d, want %d", tc.method, tc.path, tc.body, resp.StatusCode, tc.want)
		}
	}
	if h := getHealthz(t, client, ts.URL); h.WindowStatements != 0 || h.Ingested != 0 {
		t.Fatalf("rejected requests touched the window: %+v", h)
	}
}
