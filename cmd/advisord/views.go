package main

import (
	"fmt"
	"math"
	"net/http"
	"time"

	"dyndesign/internal/advisor"
	"dyndesign/internal/calib"
	"dyndesign/internal/core"
	"dyndesign/internal/durable"
	"dyndesign/internal/explain"
	"dyndesign/internal/obs"
)

// handleRecommendation serves the last published snapshot verbatim. The
// body was marshaled at publication, so concurrent readers get a
// consistent recommendation even while a re-solve is swapping it.
func (s *service) handleRecommendation(w http.ResponseWriter, r *http.Request) {
	snap := s.snap.Load()
	if snap == nil {
		writeError(w, http.StatusServiceUnavailable, "no recommendation yet (window below %d statements or first solve pending)", s.cfg.MinSolve)
		return
	}
	snap.serve(w)
}

// solvesResponse is the GET /solves body: the retained decision lineage,
// newest first. The JSONL audit file (when a data dir is configured)
// holds the complete history beyond the ring.
type solvesResponse struct {
	Count       int           `json:"count"`
	AuditErrors int64         `json:"audit_errors,omitempty"`
	Solves      []solveRecord `json:"solves"`
}

// solves is the per-solve lineage ring.
func (s *service) solves() solvesResponse {
	recs, auditErrs := s.lineage.list()
	return solvesResponse{Count: len(recs), AuditErrors: auditErrs, Solves: recs}
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

// calibration is the cost-model calibration report.
func (s *service) calibration() calibrationResponse {
	return calibrationResponse{
		Enabled:           s.cfg.CalibSamples > 0,
		SamplesPerSolve:   s.cfg.CalibSamples,
		CalibrationErrors: s.calibErrors.Load(),
		Report:            s.calibMon.Report(),
	}
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
	RecoveryDropped   int    `json:"recovery_dropped"`
	WorldMismatch     bool   `json:"world_mismatch"`
}

type memoJSON struct {
	Entries       int64   `json:"entries"`
	Capacity      int     `json:"capacity"`
	HitRate       float64 `json:"hit_rate"`
	Evictions     int64   `json:"evictions"`
	Invalidations int64   `json:"invalidations"`
}

// healthz is built from the same view the metrics are read from.
func (s *service) healthz() healthzResponse {
	v := s.view()
	resp := healthzResponse{
		Status:            "ok",
		Ingested:          s.ingested.Load(),
		Batches:           s.batches.Load(),
		Rejected:          s.rejected.Load(),
		Shed:              s.shed.Load(),
		BodyTooLarge:      s.bodyTooLarge.Load(),
		WindowStatements:  v.winLen,
		WindowCapacity:    v.winCap,
		WindowTotal:       v.winTotal,
		DriftAlerts:       s.driftAlerts.Load(),
		Resolves:          s.resolves.Load(),
		SolveErrors:       s.solveErrors.Load(),
		HasRecommendation: !v.publishedAt.IsZero(),
		Memo: memoJSON{
			Entries:       v.memo.Entries,
			Capacity:      v.memo.Capacity,
			HitRate:       v.memo.HitRate(),
			Evictions:     v.memo.Evictions,
			Invalidations: v.memo.Invalidations,
		},
	}
	if s.store != nil {
		resp.Durable = &durableJSON{
			WALLastSeq:        v.wal.LastSeq,
			WALAppends:        v.wal.Appends,
			WALFsyncs:         v.wal.Fsyncs,
			WALSegments:       v.wal.Segments,
			Snapshots:         v.wal.Snapshots,
			SnapshotErrors:    s.snapErrors.Load(),
			LastSnapshotSeq:   v.wal.LastSnapshotSeq,
			RecoverySnapSeq:   s.recoveredSnapSeq,
			RecoveryReplayed:  s.recoveredReplay,
			RecoveryTruncated: v.wal.TruncatedBytes,
			RecoveryDiscarded: v.wal.SnapshotsDiscarded,
			RecoveryDropped:   s.recoveredDropped,
			WorldMismatch:     s.worldMismatch,
		}
	}
	return resp
}

// --- Metrics -----------------------------------------------------------

// view is what one /metrics scrape or /healthz request reads: every
// source that needs a lock or a computation is sampled once here, not
// once per metric; the service's atomic counters and the recovery facts
// are read in place through svc. Nothing in it is a copy that outlives
// the request, so no endpoint can disagree with the state it reports.
type view struct {
	svc            *service
	winLen, winCap int
	winTotal       int64
	memo           advisor.MemoStats
	wal            durable.Stats // zero without a data dir
	calib          calib.Report
	// attempt and published are the newest lineage records (SolveID 0 =
	// none yet); publishedAt is zero until a recommendation is served.
	attempt, published solveRecord
	publishedAt        time.Time
}

func (s *service) view() *view {
	v := &view{svc: s, memo: s.memo.Stats(), calib: s.calibMon.Report()}
	s.mu.Lock()
	v.winLen, v.winCap, v.winTotal = s.win.Len(), s.win.Cap(), s.win.Total()
	s.mu.Unlock()
	if s.store != nil {
		v.wal = s.store.Stats()
	}
	v.attempt, v.published = s.lineage.newest()
	if sn := s.snap.Load(); sn != nil {
		v.publishedAt = sn.at
	}
	return v
}

// metric is one advisord_* family: its name, TYPE and HELP, and where
// its value lives. A NaN read leaves the family out of the scrape.
type metric struct {
	name string
	kind obs.MetricKind
	help string
	read func(v *view) float64
}

// when reports x while its source exists and NaN (absent) otherwise.
func when(exists bool, x float64) float64 {
	if exists {
		return x
	}
	return math.NaN()
}

func (v *view) durable(x float64) float64    { return when(v.svc.store != nil, x) }
func (v *view) lastSolve(x float64) float64  { return when(v.published.SolveID != 0, x) }
func (v *view) calibrated(x float64) float64 { return when(v.calib.Samples > 0, x) }

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// metricsTable is the only place an advisord_* gauge or counter is
// named. newService declares it to the registry once; every scrape
// evaluates it against one view. The README's metrics table is
// generated from it (TestMetricsTableInREADME).
var metricsTable = []metric{
	{"advisord_ingested_total", obs.Counter, "Statements accepted by /ingest over the service lifetime.", func(v *view) float64 { return float64(v.svc.ingested.Load()) }},
	{"advisord_window_statements", obs.Gauge, "Statements currently in the sliding window.", func(v *view) float64 { return float64(v.winLen) }},
	{"advisord_staleness_statements", obs.Gauge, "Statements ingested since the window the last published solve saw (absent before the first solve).", func(v *view) float64 { return v.lastSolve(float64(v.winTotal - v.published.WindowEnd)) }},
	{"advisord_drift_alerts_total", obs.Counter, "Drift alerts raised by the workload alerter.", func(v *view) float64 { return float64(v.svc.driftAlerts.Load()) }},
	{"advisord_resolves_total", obs.Counter, "Window re-solves that published a recommendation.", func(v *view) float64 { return float64(v.svc.resolves.Load()) }},
	{"advisord_solve_errors_total", obs.Counter, "Window re-solves that failed.", func(v *view) float64 { return float64(v.svc.solveErrors.Load()) }},
	{"advisord_last_solve_seconds", obs.Gauge, "Wall-clock duration of the last re-solve attempt (the advisord_solve_seconds histogram has the distribution).", func(v *view) float64 { return when(v.attempt.SolveID != 0, v.attempt.SolveMillis/1000) }},
	{"advisord_solve_cost", obs.Gauge, "Objective cost of the last published recommendation.", func(v *view) float64 { return v.lastSolve(v.published.Cost) }},
	{"advisord_solve_gap", obs.Gauge, "Anytime optimality gap of the last recommendation (0 = proven optimal).", func(v *view) float64 { return v.lastSolve(v.published.Gap) }},
	{"advisord_plan_tables_built_total", obs.Counter, "Statements the last solve resolved into plan tables, compiled or shared with a statement that compiles alike.", func(v *view) float64 { return v.lastSolve(float64(v.published.cost.PlanTableBuilds)) }},
	{"advisord_plan_table_bytes", obs.Gauge, "Heap bytes retained by the distinct plan tables the last solve compiled, each counted once however many statements share it.", func(v *view) float64 { return v.lastSolve(float64(v.published.cost.PlanTableBytes)) }},
	{"advisord_batched_lookups_total", obs.Counter, "Configurations the last solve evaluated through the batched what-if entry point.", func(v *view) float64 { return v.lastSolve(float64(v.published.cost.BatchedLookups)) }},
	{"advisord_recommendation_age_seconds", obs.Gauge, "Seconds since the current recommendation was published (absent before the first solve).", func(v *view) float64 { return when(!v.publishedAt.IsZero(), time.Since(v.publishedAt).Seconds()) }},
	{"advisord_memo_entries", obs.Gauge, "Current occupancy of the retained what-if memo, in cells (stored rows x candidate configurations).", func(v *view) float64 { return float64(v.memo.Entries) }},
	{"advisord_memo_hit_rate", obs.Gauge, "Lifetime hit rate of the retained what-if memo.", func(v *view) float64 { return v.memo.HitRate() }},
	{"advisord_memo_evictions_total", obs.Counter, "Cells evicted (whole rows at a time) from the capped what-if memo.", func(v *view) float64 { return float64(v.memo.Evictions) }},
	{"advisord_memo_invalidations_total", obs.Counter, "Whole-memo purges caused by cost-world or candidate-list changes.", func(v *view) float64 { return float64(v.memo.Invalidations) }},
	{"advisord_shed_total", obs.Counter, "Ingest requests shed with 429 by the overload guard.", func(v *view) float64 { return float64(v.svc.shed.Load()) }},
	{"advisord_body_too_large_total", obs.Counter, "Requests rejected with 413 for exceeding the body cap.", func(v *view) float64 { return float64(v.svc.bodyTooLarge.Load()) }},
	{"advisord_wal_appends_total", obs.Counter, "Records appended to the write-ahead log this process, one per sequence (a batch frame of n statements counts n).", func(v *view) float64 { return v.durable(float64(v.wal.Appends)) }},
	{"advisord_wal_appended_bytes_total", obs.Counter, "Bytes appended to the write-ahead log this process.", func(v *view) float64 { return v.durable(float64(v.wal.AppendedBytes)) }},
	{"advisord_wal_fsyncs_total", obs.Counter, "WAL and snapshot fsyncs issued this process (one per ingest batch at -fsync-every 1).", func(v *view) float64 { return v.durable(float64(v.wal.Fsyncs)) }},
	{"advisord_wal_segments", obs.Gauge, "Current WAL segment file count.", func(v *view) float64 { return v.durable(float64(v.wal.Segments)) }},
	{"advisord_snapshots_total", obs.Counter, "Durable snapshots written this process.", func(v *view) float64 { return v.durable(float64(v.wal.Snapshots)) }},
	{"advisord_snapshot_errors_total", obs.Counter, "Durable snapshot writes that failed.", func(v *view) float64 { return v.durable(float64(v.svc.snapErrors.Load())) }},
	{"advisord_snapshot_last_seq", obs.Gauge, "WAL sequence folded into the newest durable snapshot.", func(v *view) float64 { return v.durable(float64(v.wal.LastSnapshotSeq)) }},
	{"advisord_recovery_replayed", obs.Gauge, "WAL records replayed into the window at startup.", func(v *view) float64 { return v.durable(float64(v.svc.recoveredReplay)) }},
	{"advisord_recovery_truncated_bytes", obs.Gauge, "Torn-tail bytes truncated from the WAL at startup.", func(v *view) float64 { return v.durable(float64(v.wal.TruncatedBytes)) }},
	{"advisord_recovery_snapshot_seq", obs.Gauge, "WAL sequence of the snapshot recovery started from.", func(v *view) float64 { return v.durable(float64(v.svc.recoveredSnapSeq)) }},
	{"advisord_recovery_dropped", obs.Gauge, "Snapshot statements recovery dropped because ingest refuses them today.", func(v *view) float64 { return v.durable(float64(v.svc.recoveredDropped)) }},
	{"advisord_recovery_world_mismatch", obs.Gauge, "1 when recovery dropped cost-derived state because table statistics changed.", func(v *view) float64 { return v.durable(b2f(v.svc.worldMismatch)) }},
	{"advisord_calib_runs_total", obs.Counter, "Calibration replay runs folded into the monitor.", func(v *view) float64 { return float64(v.calib.Runs) }},
	{"advisord_calib_samples_total", obs.Counter, "Estimate/measurement pairs collected across all calibration runs.", func(v *view) float64 { return float64(v.calib.Samples) }},
	{"advisord_calib_skipped_dml_total", obs.Counter, "Statements excluded from calibration because replaying them would mutate the database.", func(v *view) float64 { return float64(v.calib.SkippedDML) }},
	{"advisord_calib_superseded_total", obs.Counter, "Published solves whose calibration replay was replaced by a newer publish before it started.", func(v *view) float64 { return float64(v.svc.calibSuperseded.Load()) }},
	{"advisord_calib_errors_total", obs.Counter, "Calibration replay runs that failed outright.", func(v *view) float64 { return float64(v.svc.calibErrors.Load()) }},
	{"advisord_calib_median_abs_ratio", obs.Gauge, "Streaming median of the absolute estimate/measurement ratio max(r, 1/r); 1.0 = perfectly calibrated.", func(v *view) float64 { return v.calibrated(v.calib.MedianAbsRatio) }},
	{"advisord_calib_p90_abs_ratio", obs.Gauge, "Streaming 90th percentile of the absolute estimate/measurement ratio.", func(v *view) float64 { return v.calibrated(v.calib.P90AbsRatio) }},
	{"advisord_calib_mean_signed_log2", obs.Gauge, "Mean signed error in doublings; positive = the cost model underestimates.", func(v *view) float64 { return v.calibrated(v.calib.MeanSignedLog2) }},
	{"advisord_calib_trend", obs.Gauge, "Drift of per-run median absolute error (doublings) between older and newer calibration runs; positive = the model is getting worse.", func(v *view) float64 { return v.calibrated(v.calib.Trend) }},
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
	solveOutcome

	Designs []designRun `json:"designs"`
	Steps   []stepJSON  `json:"steps"`

	Stats       solveStats           `json:"stats"`
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

func buildResponse(rec *advisor.Recommendation, lrec *solveRecord, expl *explain.Explanation) recResponse {
	resp := recResponse{
		Table:        rec.Table,
		Window:       rec.Workload.Name,
		WindowSeq:    lrec.WindowSeq,
		Reason:       lrec.Reason,
		SolvedAt:     time.Now().UTC(),
		SolveMillis:  lrec.SolveMillis,
		Statements:   rec.Workload.Len(),
		Stages:       rec.Problem.Stages,
		K:            rec.Problem.K,
		Initial:      configNames(rec.Problem.Initial, rec.StructureNames),
		Strategy:     string(rec.Strategy),
		solveOutcome: lrec.solveOutcome,
		Stats:        lrec.solveStats,
		Explanation:  expl,
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
