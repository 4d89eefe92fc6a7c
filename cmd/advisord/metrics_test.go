package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"dyndesign/internal/durable"
	"dyndesign/internal/obs"
)

// metricsService builds a durable service with a gauge registry, no
// automatic solves, and an HTTP front; the test stands in for the solver
// goroutine by calling solveOnce itself.
func metricsService(t *testing.T, cfg serviceConfig) (*service, *obs.GaugeSet, *httptest.Server) {
	t.Helper()
	store, err := durable.Open(t.TempDir(), durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gauges := obs.NewGaugeSet()
	cfg.Store, cfg.Gauges, cfg.MinSolve = store, gauges, -1
	svc, err := newService(testAdvisor(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.mux())
	t.Cleanup(func() {
		ts.Close()
		_ = svc.close()
	})
	return svc, gauges, ts
}

// scrape renders the registry the way /metrics does, lints it, and
// returns the samples by family name.
func scrape(t *testing.T, g *obs.GaugeSet) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return assertPrometheusParses(t, buf.String())
}

func ingestTrace(t *testing.T, client *http.Client, url string, from, to int) {
	t.Helper()
	postIngest(t, client, url, traceBatch(t, from, to))
}

// TestMetricsListedBeforeFirstIngest pins that the table is declared,
// not published: a scrape of a service that has seen no traffic already
// lists every family whose source exists — a pushed gauge only appeared
// after the first code path that happened to copy it.
func TestMetricsListedBeforeFirstIngest(t *testing.T) {
	svc, gauges, _ := metricsService(t, serviceConfig{WindowCap: 50})
	got := scrape(t, gauges)
	v := svc.view()
	listed := 0
	for _, m := range metricsTable {
		_, ok := got[m.name]
		if absent := math.IsNaN(m.read(v)); ok == absent {
			t.Errorf("%s: listed = %v, but its source exists = %v", m.name, ok, !absent)
		}
		if ok {
			listed++
		}
	}
	if listed != len(got) {
		t.Errorf("scrape lists %d families, %d of them declared in the table", len(got), listed)
	}
	// What a fresh service cannot know yet is exactly the last-solve and
	// calibration-quality numbers; everything else — the durable and
	// recovery families included — is there from the first scrape.
	if want := len(metricsTable) - 12; listed != want {
		t.Errorf("fresh service lists %d families, want %d", listed, want)
	}
}

// TestMetricsAgreeWithHealthz pins that /metrics and /healthz are two
// views of the same state at every moment — after ingest without a
// solve, after a tumbling solve emptied the window, after a snapshot
// failed between solves — where pushed gauges agreed only at the
// moments something remembered to copy them.
func TestMetricsAgreeWithHealthz(t *testing.T) {
	svc, gauges, ts := metricsService(t, serviceConfig{WindowCap: 50, Tumbling: true, K: 2, SegmentSize: 5})
	client := ts.Client()
	agree := func(when string) (map[string]float64, healthzResponse) {
		t.Helper()
		m, h := scrape(t, gauges), getHealthz(t, client, ts.URL)
		for name, want := range map[string]float64{
			"advisord_window_statements":     float64(h.WindowStatements),
			"advisord_ingested_total":        float64(h.Ingested),
			"advisord_memo_entries":          float64(h.Memo.Entries),
			"advisord_wal_appends_total":     float64(h.Durable.WALAppends),
			"advisord_snapshots_total":       float64(h.Durable.Snapshots),
			"advisord_snapshot_errors_total": float64(h.Durable.SnapshotErrors),
		} {
			if got, ok := m[name]; !ok || got != want {
				t.Errorf("%s: scraped %s = %v (listed %v), /healthz says %v", when, name, got, ok, want)
			}
		}
		return m, h
	}

	ingestTrace(t, client, ts.URL, 0, 30)
	m, h := agree("after ingest, before any solve")
	if h.WindowStatements != 30 || h.Durable.WALAppends != 30 {
		t.Fatalf("ingest not reflected: %+v", h)
	}
	if _, ok := m["advisord_staleness_statements"]; ok {
		t.Errorf("staleness reported before anything was published: %v", m)
	}

	if _, err := svc.solveOnce(context.Background(), "test"); err != nil {
		t.Fatal(err)
	}
	m, h = agree("after a tumbling solve")
	if h.WindowStatements != 0 || h.Memo.Entries == 0 {
		t.Fatalf("tumbling solve left window %d, memo %d", h.WindowStatements, h.Memo.Entries)
	}
	if m["advisord_staleness_statements"] != 0 || m["advisord_solve_cost"] <= 0 {
		t.Errorf("fresh solve: staleness %v, cost %v", m["advisord_staleness_statements"], m["advisord_solve_cost"])
	}

	ingestTrace(t, client, ts.URL, 30, 37)
	if m, _ = agree("after ingest past the published solve"); m["advisord_staleness_statements"] != 7 {
		t.Errorf("staleness = %v after 7 statements past the solve", m["advisord_staleness_statements"])
	}

	// A between-solves snapshot that fails (the store is gone) must show
	// at the next scrape, not at the next solve.
	if err := svc.store.Close(); err != nil {
		t.Fatal(err)
	}
	svc.writeDurableSnapshot()
	if _, h = agree("after a failed snapshot"); h.Durable.SnapshotErrors != 1 {
		t.Fatalf("snapshot on a closed store did not fail: %+v", h.Durable)
	}
}

var updateREADME = flag.Bool("update", false, "rewrite the generated metrics table in README.md")

const (
	readmePath  = "../../README.md"
	tableBegin  = "<!-- advisord-metrics:begin (generated by `make metrics-doc`; do not edit) -->\n"
	tableEnd    = "<!-- advisord-metrics:end -->\n"
	updateHowTo = "run `make metrics-doc` (go test ./cmd/advisord -run TestMetricsTableInREADME -update)"
)

// TestMetricsTableInREADME keeps the README's metrics reference equal
// to the declarations: the block between the two markers is generated
// from metricsTable, and -update rewrites it.
func TestMetricsTableInREADME(t *testing.T) {
	var want strings.Builder
	want.WriteString("| Metric | Type | Meaning |\n|---|---|---|\n")
	for _, m := range metricsTable {
		fmt.Fprintf(&want, "| `%s` | %s | %s |\n", m.name, m.kind, strings.ReplaceAll(m.help, "|", "\\|"))
	}
	readme, err := os.ReadFile(readmePath)
	if err != nil {
		t.Fatal(err)
	}
	begin := strings.Index(string(readme), tableBegin)
	end := strings.Index(string(readme), tableEnd)
	if begin < 0 || end < begin {
		t.Fatalf("README.md lacks the %q ... %q markers", strings.TrimSpace(tableBegin), strings.TrimSpace(tableEnd))
	}
	begin += len(tableBegin)
	if got := string(readme[begin:end]); got == want.String() {
		return
	}
	if !*updateREADME {
		t.Fatalf("README.md metrics table differs from cmd/advisord's metricsTable; %s", updateHowTo)
	}
	out := string(readme[:begin]) + want.String() + string(readme[end:])
	if err := os.WriteFile(readmePath, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("README.md metrics table rewritten (%d families)", len(metricsTable))
}
