package dyndesign

import (
	"context"
	"io"

	"dyndesign/internal/alerter"
	"dyndesign/internal/core"
	"dyndesign/internal/engine"
	"dyndesign/internal/tuner"
)

// This file exposes the toolkit's extensions beyond the paper: choosing
// the change bound k (the paper's first open question), monitoring for
// workload drift (the trigger the paper's §7 delegates to design
// alerters), multi-trace recommendations, and database snapshots.

// --- Choosing k -----------------------------------------------------------

// KPoint is one point of a cost-of-constraint curve.
type KPoint = core.KPoint

// KChoice reports a selected change bound and the curve behind it.
type KChoice = tuner.KChoice

// CrossValidateK chooses k by recommending on the first trace and
// validating on the others; it needs at least two representative traces.
// One layered run on the first trace's problem answers every k. A
// heuristic opts.Strategy, Fallback, Timeout and MaxWhatIfCalls are
// refused; K, Explain, Calibrate and LastKnownGood are not read.
func CrossValidateK(adv *Advisor, traces []*Workload, opts Options, maxK int) (*KChoice, error) {
	return tuner.CrossValidateK(context.Background(), adv, traces, opts, maxK)
}

// CrossValidateKContext is CrossValidateK with cooperative
// cancellation: ctx is the only bound on its run.
func CrossValidateKContext(ctx context.Context, adv *Advisor, traces []*Workload, opts Options, maxK int) (*KChoice, error) {
	return tuner.CrossValidateK(ctx, adv, traces, opts, maxK)
}

// ElbowK chooses k from a single trace: the smallest k capturing
// captureFrac of the improvement attainable between the static design
// and the unconstrained optimum (default 0.6 when <= 0; at most 1). It
// reads one k-curve and treats options as CrossValidateK does.
func ElbowK(adv *Advisor, trace *Workload, opts Options, maxK int, captureFrac float64) (*KChoice, error) {
	return tuner.ElbowK(context.Background(), adv, trace, opts, maxK, captureFrac)
}

// ElbowKContext is ElbowK with cooperative cancellation: ctx is the
// only bound on its run.
func ElbowKContext(ctx context.Context, adv *Advisor, trace *Workload, opts Options, maxK int, captureFrac float64) (*KChoice, error) {
	return tuner.ElbowK(ctx, adv, trace, opts, maxK, captureFrac)
}

// --- Drift alerting ---------------------------------------------------------

// Alerter watches a statement stream and raises an alert when the
// installed design has drifted away from the recent workload — the
// signal to re-run the advisor.
type Alerter = alerter.Alerter

// Alert reports detected drift.
type Alert = alerter.Alert

// AlerterOptions tunes the drift alerter.
type AlerterOptions = alerter.Options

// NewAlerter builds a drift alerter over the advisor's design space.
func NewAlerter(adv *Advisor, configs []Config, current Config, opts AlerterOptions) (*Alerter, error) {
	return alerter.New(adv, configs, current, opts)
}

// --- Snapshots ---------------------------------------------------------------

// SaveDatabase writes a snapshot of the database.
func SaveDatabase(db *Database, w io.Writer) error { return db.Save(w) }

// LoadDatabase restores a database from a snapshot, rebuilding indexes
// and statistics.
func LoadDatabase(r io.Reader) (*Database, error) { return engine.Load(r) }

// --- Multi-trace -----------------------------------------------------------

// RecommendMulti recommends one design sequence against the average cost
// over several aligned representative traces (the §2 alternative input
// formulation).
func RecommendMulti(adv *Advisor, traces []*Workload, opts Options) (*Recommendation, error) {
	return adv.RecommendMulti(traces, opts)
}

// EvaluateRecommendationOn costs a recommendation's design sequence
// against a different workload of the same length, without executing it.
func EvaluateRecommendationOn(adv *Advisor, rec *Recommendation, w *Workload, opts Options) (float64, error) {
	return adv.EvaluateOn(rec, w, opts)
}
