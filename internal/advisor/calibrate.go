package advisor

import (
	"context"
	"fmt"

	"dyndesign/internal/calib"
)

// CalibrateOptions configures post-solve calibration: replay a sample
// of the recommendation's statements on the live engine under their
// recommended designs and compare measured page accesses with the
// what-if estimates the solve was justified by.
type CalibrateOptions struct {
	// Samples caps the number of statements replayed per
	// recommendation; <= 0 replays every eligible (SELECT) statement.
	Samples int
	// Seed drives the deterministic sampling permutation.
	Seed int64
	// Monitor, when non-nil, accumulates the run into cross-run
	// streaming statistics (quantiles, per-class/per-structure error,
	// drift trend). The run report is attached to the recommendation
	// either way.
	Monitor *calib.Monitor
}

// Calibrate replays a sample of the recommendation's workload on the
// advisor's database under the recommended per-statement designs and
// attaches the resulting calibration run report to the recommendation.
// The estimator is the advisor's own EXEC primitive, so the comparison
// is exactly "what the solver believed" against "what the engine did".
// The database's index set is restored before returning; only SELECT
// statements are executed, so the run never mutates rows.
func (a *Advisor) Calibrate(rec *Recommendation, opts CalibrateOptions) (*calib.RunReport, error) {
	return a.CalibrateContext(context.Background(), rec, opts)
}

// CalibrateContext is Calibrate under a context: cancellation stops the
// replay between sampled statements (see calib.Run) and returns ctx's
// error; the index set is still restored, and a cancelled run is neither
// attached to the recommendation nor folded into the monitor.
func (a *Advisor) CalibrateContext(ctx context.Context, rec *Recommendation, opts CalibrateOptions) (*calib.RunReport, error) {
	if rec == nil || rec.Solution == nil {
		return nil, fmt.Errorf("advisor: calibrating a recommendation without a solution")
	}
	designs := rec.PerStatement()
	items := make([]calib.Item, len(rec.Workload.Statements))
	for i, s := range rec.Workload.Statements {
		items[i] = calib.Item{Stmt: s, Config: designs[i]}
	}
	rep, err := calib.Run(ctx,
		calib.Target{DB: a.db, Table: a.space.Table, Structures: a.space.Structures},
		items,
		a.StatementCost,
		calib.Options{Samples: opts.Samples, Seed: opts.Seed},
	)
	if err != nil {
		return rep, err
	}
	rec.Calibration = rep
	opts.Monitor.ObserveRun(rep)
	return rep, nil
}
