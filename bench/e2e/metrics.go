package main

import (
	"fmt"
	"math"
)

// metricKind says where a metric is reported.
type metricKind int

const (
	// kindEndToEnd metrics are gated: every workload reports every one
	// with tracing off, and BENCHMARK.json fixes a regression bound. The
	// gated timings are a run's best sample, not its median: on this
	// kind of host, noise only ever adds time, in bursts that last
	// seconds to minutes, and the fastest sample varies a half to a
	// tenth as much from run to run as the median does (README.md,
	// Repeatability). The medians are reported as detail.
	kindEndToEnd metricKind = iota
	// kindLayer metrics come from the traced run; every workload reports
	// every one, and none is gated.
	kindLayer
	// kindDetail metrics belong to some workloads only. They are printed
	// in the table and the JSON report but are not part of the contract
	// line, which may not omit a metric on any workload.
	kindDetail
)

type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Kind   metricKind
}

// metricDefs is the one list of every metric the harness can emit.
// BENCHMARK.json's end_to_end and per_layer lists must equal the
// kindEndToEnd and kindLayer entries (a test holds them together);
// README.md defines each.
var metricDefs = []metricDef{
	{"setup_s", "s", "lower", kindEndToEnd},
	{"peak_stmts_per_s", "1/s", "higher", kindEndToEnd},
	{"recommend_min_ms", "ms", "lower", kindEndToEnd},
	{"peak_rss_mb", "MB", "lower", kindEndToEnd},

	{"ingest_stmts_per_s", "1/s", "higher", kindDetail},
	{"ingest_p50_ms", "ms", "lower", kindDetail},
	{"ingest_tail_ms", "ms", "lower", kindDetail},
	{"ingest_tail_pct", "%", "higher", kindDetail},
	{"solve_forced_p50_ms", "ms", "lower", kindDetail},
	{"restart_ready_s", "s", "lower", kindDetail},
	{"solve_cold_p50_ms", "ms", "lower", kindDetail},
	{"resolve_slide_p50_ms", "ms", "lower", kindDetail},
	{"replay_stmts_per_s", "1/s", "higher", kindDetail},
	{"replay_recommend_p50_ms", "ms", "lower", kindDetail},
	{"replay_pages_vs_estimate", "ratio", "lower", kindDetail},
	{"setup_samples", "count", "higher", kindDetail},
	{"failed_ops_share", "share", "lower", kindDetail},

	{"sql.parse_ns_per_stmt", "ns", "lower", kindLayer},
	{"workload.window_append_ns", "ns", "lower", kindLayer},
	{"workload.window_snapshot_us", "us", "lower", kindLayer},
	{"workload.segments_us", "us", "lower", kindLayer},
	{"cost.validate_ns_per_stmt", "ns", "lower", kindLayer},
	{"cost.validate_dml_ns_per_stmt", "ns", "lower", kindLayer},
	{"cost.plan_compile_ns_per_stmt", "ns", "lower", kindLayer},
	{"cost.plan_lookup_ns_per_cell", "ns", "lower", kindLayer},
	{"advisor.problem_ms", "ms", "lower", kindLayer},
	{"advisor.recommend_ms", "ms", "lower", kindLayer},
	{"advisor.slide_recommend_ms", "ms", "lower", kindLayer},
	{"advisor.memo_hit_rate", "share", "higher", kindLayer},
	{"advisor.whatif_calls", "count", "lower", kindLayer},
	{"core.solve_ms", "ms", "lower", kindLayer},
	{"core.matrix_build_ms", "ms", "lower", kindLayer},
	{"core.dp_ms", "ms", "lower", kindLayer},
	{"core.backtrack_ms", "ms", "lower", kindLayer},
	{"core.matrix_reuses", "count", "higher", kindLayer},
	{"alerter.observe_ns_per_stmt", "ns", "lower", kindLayer},
	{"alerter.alerts", "count", "lower", kindLayer},
	{"durable.append_us_per_stmt", "us", "lower", kindLayer},
	{"durable.fsyncs_per_stmt", "count", "lower", kindLayer},
	{"durable.wal_bytes_per_stmt_byte", "ratio", "lower", kindLayer},
	{"durable.snapshot_write_ms", "ms", "lower", kindLayer},
	{"durable.recover_ms", "ms", "lower", kindLayer},
	{"durable.restart_ready_s", "s", "lower", kindLayer},
	{"explain.attribution_us", "us", "lower", kindLayer},
	{"calib.run_ms", "ms", "lower", kindLayer},
	{"calib.skipped_dml", "count", "lower", kindLayer},
	{"engine.load_rows_per_s", "1/s", "higher", kindLayer},
	{"stats.analyze_ms", "ms", "lower", kindLayer},
	{"engine.select_seek_us", "us", "lower", kindLayer},
	{"engine.select_scan_ms", "ms", "lower", kindLayer},
	{"engine.insert_us", "us", "lower", kindLayer},
	{"engine.create_index_ms", "ms", "lower", kindLayer},
	{"engine.drop_index_us", "us", "lower", kindLayer},
	{"engine.pages_per_stmt", "count", "lower", kindLayer},
	{"btree.insert_ns", "ns", "lower", kindLayer},
	{"btree.seek_ns", "ns", "lower", kindLayer},
	{"index.build_ms", "ms", "lower", kindLayer},
	{"index.maintain_ns_per_row", "ns", "lower", kindLayer},
	{"storage.heap_scan_ns_per_row", "ns", "lower", kindLayer},
	{"storage.heap_insert_ns", "ns", "lower", kindLayer},
	{"service.ingest_p50_ms", "ms", "lower", kindLayer},
	{"service.ingest_p99_ms", "ms", "lower", kindLayer},
	{"service.http_json_residual_us", "us", "lower", kindLayer},
	{"service.publish_lag_p50_ms", "ms", "lower", kindLayer},
	{"service.solve_ms_p50", "ms", "lower", kindLayer},
	{"service.resolves", "count", "lower", kindLayer},
	{"service.drift_alerts", "count", "lower", kindLayer},
	{"service.rec_get_p50_us", "us", "lower", kindLayer},
	{"service.rec_marshal_us", "us", "lower", kindLayer},
	{"service.rec_bytes", "count", "lower", kindLayer},
	{"env.fsync_probe_us", "us", "lower", kindLayer},
	{"env.spin_ns", "ns", "lower", kindLayer},
	{"env.gomaxprocs", "count", "higher", kindLayer},
	{"trace.coverage", "share", "higher", kindLayer},
	{"trace.overhead_pct", "%", "lower", kindLayer},
}

func lookupMetric(name string) (metricDef, bool) {
	for _, d := range metricDefs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// value is one reported number.
type value struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is the number of timings behind a median or percentile.
	Samples int `json:"samples,omitempty"`
}

// result is one workload's outcome: the metrics in report order and the
// operation ledger behind failed_ops_share.
type result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Rows      int64    `json:"rows"`
	Seconds   float64  `json:"seconds"`
	Traced    bool     `json:"traced"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	Values    []value  `json:"metrics"`
	WallS     float64  `json:"wall_s"`
}

// set records a metric; the name must be in metricDefs.
func (r *result) set(name string, v float64, samples int) {
	def, ok := lookupMetric(name)
	if !ok {
		panic("bench/e2e: metric " + name + " is not in metricDefs")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail("metric %s is %v", name, v)
		v = 0
	}
	for i := range r.Values {
		if r.Values[i].Name == name {
			r.Values[i].Value, r.Values[i].Samples = v, samples
			return
		}
	}
	r.Values = append(r.Values, value{Name: name, Value: v, Unit: def.Unit, Samples: samples})
}

func (r *result) get(name string) (float64, bool) {
	for _, v := range r.Values {
		if v.Name == name {
			return v.Value, true
		}
	}
	return 0, false
}

// op counts n attempted operations (requests sent, library calls made).
func (r *result) op(n int) { r.Attempted += n }

// fail counts one failed operation or check and keeps its message.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// check counts one correctness check as an attempted operation, failed
// when ok is false.
func (r *result) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.fail(format, args...)
	}
}

// must counts a library call that returned err as a failed operation.
func (r *result) must(err error, what string) bool {
	if err != nil {
		r.fail("%s: %v", what, err)
		return false
	}
	return true
}
