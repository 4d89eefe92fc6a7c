package advisor

import (
	"fmt"
	"time"

	"dyndesign/internal/calib"
	"dyndesign/internal/core"
	"dyndesign/internal/engine"
	"dyndesign/internal/workload"
)

// ReplayReport measures what a workload actually cost when executed with
// a recommended design sequence applied — the quantity Figure 3 plots.
// All page counts are logical page accesses from the engine's counter.
type ReplayReport struct {
	// QueryPages is the pages charged by workload statements.
	QueryPages int64
	// TransitionPages is the pages charged by applying design changes
	// (index builds and drops), including the initial installation and
	// final teardown.
	TransitionPages int64
	// Changes is the number of configuration changes applied (all of
	// them, endpoint transitions included).
	Changes int
	// Statements is the number of statements executed.
	Statements int
	// Wall is the elapsed wall-clock time.
	Wall time.Duration
}

// TotalPages is query plus transition pages.
func (r ReplayReport) TotalPages() int64 { return r.QueryPages + r.TransitionPages }

// Replay executes a workload on a live database while applying a design
// sequence at its change points: before each statement the database's
// index set is reconciled with the design for that statement, and after
// the last statement with the problem's final configuration when set.
//
// The design sequence is given per statement (see
// Recommendation.PerStatement); the workload may differ from the one the
// recommendation was computed from, as in the paper's W2/W3 experiment,
// but must have the same length.
func Replay(db *engine.Database, w *workload.Workload, rec *Recommendation, designs []core.Config) (ReplayReport, error) {
	if len(designs) != w.Len() {
		return ReplayReport{}, fmt.Errorf("advisor: %d designs for %d statements", len(designs), w.Len())
	}
	stats := db.AccessStats()
	report := ReplayReport{}
	start := time.Now()

	target := calib.Target{DB: db, Table: rec.Table, Structures: rec.Structures}
	current, err := target.Current()
	if err != nil {
		return ReplayReport{}, err
	}
	apply := func(to core.Config) error {
		if to == current {
			return nil
		}
		before := stats.Snapshot()
		if _, err := target.Reconcile(current, to); err != nil {
			return fmt.Errorf("advisor: applying a design change: %w", err)
		}
		report.TransitionPages += stats.Snapshot().Sub(before).Total()
		report.Changes++
		current = to
		return nil
	}

	for i, stmt := range w.Statements {
		if err := apply(designs[i]); err != nil {
			return report, err
		}
		before := stats.Snapshot()
		if _, err := db.ExecStmt(stmt.Stmt); err != nil {
			return report, fmt.Errorf("advisor: executing statement %d (%q): %w", i, stmt.SQL, err)
		}
		report.QueryPages += stats.Snapshot().Sub(before).Total()
		report.Statements++
	}
	if rec.Problem.Final != nil {
		if err := apply(*rec.Problem.Final); err != nil {
			return report, err
		}
	}
	report.Wall = time.Since(start)
	return report, nil
}
