package calib

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"dyndesign/internal/catalog"
	"dyndesign/internal/core"
	"dyndesign/internal/engine"
	"dyndesign/internal/sql"
	"dyndesign/internal/workload"
)

// Estimator produces the what-if EXEC estimate for one statement under
// one configuration — in practice advisor.StatementCost, the same
// primitive whose memoized values justified the recommendation.
type Estimator func(workload.Statement, core.Config) (float64, error)

// Target identifies the engine-side world a replay runs against: the
// live database, the tuned table, and the candidate structures whose
// bit positions define configurations.
type Target struct {
	DB    *engine.Database
	Table string
	// Structures maps configuration bit i to Structures[i], exactly as
	// in the advisor's design space.
	Structures []catalog.IndexDef
}

// Current maps the table's materialized indexes onto configuration
// bits. An index outside Structures is an error: whoever reconciles
// from the result could not restore, or know when to drop, an index it
// cannot name.
func (t Target) Current() (core.Config, error) {
	names, err := t.DB.IndexNames(t.Table)
	if err != nil {
		return 0, err
	}
	bitOf := make(map[string]int, len(t.Structures))
	for i, def := range t.Structures {
		bitOf[def.Name()] = i
	}
	var c core.Config
	for _, n := range names {
		bit, ok := bitOf[n]
		if !ok {
			return 0, fmt.Errorf("calib: table has index %s outside the design space", n)
		}
		c = c.With(bit)
	}
	return c, nil
}

// DDL lists the statements that change the index set from one
// configuration to another, drops first. It needs Structures only.
func (t Target) DDL(from, to core.Config) []string {
	added, removed := from.Diff(to)
	var out []string
	for _, s := range removed {
		def := t.Structures[s]
		out = append(out, fmt.Sprintf("DROP INDEX %s ON %s", def.Name(), def.Table))
	}
	for _, s := range added {
		def := t.Structures[s]
		out = append(out, fmt.Sprintf("CREATE INDEX ON %s (%s)", def.Table, strings.Join(def.Columns, ", ")))
	}
	return out
}

// Reconcile executes DDL(from, to) on the live engine and returns how
// many of its statements ran.
func (t Target) Reconcile(from, to core.Config) (ddl int, err error) {
	for _, stmt := range t.DDL(from, to) {
		if _, err := t.DB.Exec(stmt); err != nil {
			return ddl, fmt.Errorf("calib: %s: %w", stmt, err)
		}
		ddl++
	}
	return ddl, nil
}

// Item is one statement to calibrate plus the configuration the
// recommendation put in effect for it.
type Item struct {
	Stmt   workload.Statement
	Config core.Config
}

// Options bounds a replay run.
type Options struct {
	// Samples caps how many statements are actually replayed; <= 0
	// replays every eligible statement. Sampling is deterministic in
	// Seed.
	Samples int
	// Seed drives the sampling permutation.
	Seed int64
}

// RunReport is the outcome of one replay run: the paired samples plus
// the accounting a monitor or an operator needs to judge coverage.
type RunReport struct {
	// Samples are the paired estimate/measurement observations.
	Samples []Sample `json:"samples"`
	// Replayed is len(Samples) plus Errors — the statements executed.
	Replayed int `json:"replayed"`
	// SkippedDML counts statements excluded because replaying them
	// would mutate the database (INSERT/UPDATE/DELETE); calibration
	// reads, it never writes rows.
	SkippedDML int `json:"skipped_dml"`
	// Errors counts statements whose measurement or estimation failed.
	Errors int `json:"errors"`
	// Transitions is the number of index creates+drops performed to put
	// sampled statements under their recommended configurations.
	Transitions int `json:"transitions"`
	// Wall is the elapsed wall-clock time of the run.
	Wall time.Duration `json:"wall_ns"`
}

// MedianAbsRatio is the exact median of the run's absolute error
// ratios max(r, 1/r), or 0 with no samples. Unlike the monitor's
// streaming quantiles this is computed from the raw samples, so tests
// and thresholds can pin it without histogram granularity.
func (r *RunReport) MedianAbsRatio() float64 {
	if r == nil || len(r.Samples) == 0 {
		return 0
	}
	abs := make([]float64, len(r.Samples))
	for i, s := range r.Samples {
		abs[i] = s.absRatio()
	}
	sort.Float64s(abs)
	if n := len(abs); n%2 == 0 {
		return (abs[n/2-1] + abs[n/2]) / 2
	}
	return abs[len(abs)/2]
}

// MeanSignedLog2 is the run's mean signed error in doublings
// (positive: the model underestimates), or 0 with no samples.
func (r *RunReport) MeanSignedLog2() float64 {
	if r == nil || len(r.Samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range r.Samples {
		sum += s.signedLog2()
	}
	return sum / float64(len(r.Samples))
}

// MeanAbsLog2 is the run's mean absolute error in doublings — the
// magnitude aggregate that moves even when only a minority of sampled
// statement classes miscalibrate (the median is deliberately robust to
// that; this is deliberately not).
func (r *RunReport) MeanAbsLog2() float64 {
	if r == nil || len(r.Samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range r.Samples {
		sum += math.Abs(s.signedLog2())
	}
	return sum / float64(len(r.Samples))
}

// ClassOf buckets a statement for per-class calibration stats: the
// statement kind, with the first predicate column for SELECTs (the
// paper's workloads are single-column point queries, so this recovers
// the mix column).
func ClassOf(s workload.Statement) string {
	switch st := s.Stmt.(type) {
	case *sql.Select:
		if st.Where != nil && len(st.Where.Conjuncts) > 0 {
			return "select(" + st.Where.Conjuncts[0].Column + ")"
		}
		return "select"
	case *sql.Insert:
		return "insert"
	case *sql.Update:
		return "update"
	case *sql.Delete:
		return "delete"
	default:
		return "other"
	}
}

// Run replays a deterministic sample of the eligible (SELECT-only)
// items against the live engine: for each sampled statement it
// reconciles the table's real index set to the statement's
// configuration, measures the statement's own logical page accesses
// via the scoped engine.MeasureStmt delta, and pairs that with the
// estimator's what-if cost. The original index set is restored before
// returning, so a run is invisible to everything but the access
// counter. Sampled items are replayed grouped by configuration to
// minimize index churn.
//
// ctx is checked between sampled items — an index build in flight runs
// to completion — and a cancelled run returns ctx's error with the
// samples taken so far, after restoring the original index set like any
// other return.
//
// Indexes present on the table but outside Structures are an error:
// the replay could not restore a world it cannot name.
func Run(ctx context.Context, t Target, items []Item, est Estimator, opts Options) (rep *RunReport, err error) {
	rep = &RunReport{}
	start := time.Now()
	defer func() { rep.Wall = time.Since(start) }()

	eligible := make([]int, 0, len(items))
	for i, it := range items {
		if _, ok := it.Stmt.Stmt.(*sql.Select); ok {
			eligible = append(eligible, i)
		} else {
			rep.SkippedDML++
		}
	}
	if opts.Samples > 0 && len(eligible) > opts.Samples {
		rng := rand.New(rand.NewSource(opts.Seed))
		rng.Shuffle(len(eligible), func(i, j int) {
			eligible[i], eligible[j] = eligible[j], eligible[i]
		})
		eligible = eligible[:opts.Samples]
	}
	if len(eligible) == 0 {
		return rep, nil
	}
	// Group by configuration (ties broken by workload order) so the
	// reconciler builds each index at most once per run.
	sort.Slice(eligible, func(a, b int) bool {
		ca, cb := items[eligible[a]].Config, items[eligible[b]].Config
		if ca != cb {
			return ca < cb
		}
		return eligible[a] < eligible[b]
	})

	original, err := t.Current()
	if err != nil {
		return rep, err
	}
	current := original
	reconcile := func(to core.Config) error {
		n, err := t.Reconcile(current, to)
		rep.Transitions += n
		if err != nil {
			return err
		}
		current = to
		return nil
	}
	// Restore the pre-run index set whatever happens; a restore failure
	// surfaces only when the run itself succeeded.
	defer func() {
		if rerr := reconcile(original); rerr != nil && err == nil {
			err = fmt.Errorf("calib: restoring original index set: %w", rerr)
		}
	}()

	for _, i := range eligible {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		it := items[i]
		if err := reconcile(it.Config); err != nil {
			return rep, err
		}
		estimated, eerr := est(it.Stmt, it.Config)
		if eerr != nil {
			rep.Replayed++
			rep.Errors++
			continue
		}
		res, delta, merr := t.DB.MeasureStmt(it.Stmt.Stmt)
		rep.Replayed++
		if merr != nil {
			rep.Errors++
			continue
		}
		structure := "heap"
		if res != nil && res.Plan != nil && res.Plan.Access.Index != nil {
			structure = res.Plan.Access.Index.Def.Name()
		}
		rep.Samples = append(rep.Samples, Sample{
			Class:     ClassOf(it.Stmt),
			Structure: structure,
			Estimated: estimated,
			Measured:  float64(delta.Total()),
		})
	}
	return rep, nil
}
