package advisor

import (
	"strings"
	"testing"

	"dyndesign/internal/calib"
	"dyndesign/internal/core"
)

// TestMemoizedExecAllocatesNothing pins the solvers' hot path over a
// warm row store: a memoized EXEC evaluation — the operation the solvers
// issue millions of times — performs zero heap allocations, and so does
// a BatchExec served from the stage's stored row. Calibration runs
// strictly after the solve and never touches the model, so it cannot
// tax this path either.
func TestMemoizedExecAllocatesNothing(t *testing.T) {
	_, adv := testAdvisor(t)
	w := testWorkload(t).Slice(0, 40)
	opts := paperOpts(2)
	p, _, err := adv.Problem(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	model := p.Model
	// Warm the memo so the measured path is the steady-state hit path.
	for stage := 0; stage < p.Stages; stage++ {
		for _, c := range p.Configs {
			model.Exec(stage, c)
		}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		for _, c := range p.Configs {
			model.Exec(0, c)
		}
	})
	if allocs != 0 {
		t.Fatalf("memoized EXEC allocates %v per run, want 0", allocs)
	}
	batch := model.(core.BatchCostModel)
	batch.BatchExec(0, p.Configs, nil)
	if allocs := testing.AllocsPerRun(1000, func() { batch.BatchExec(0, p.Configs, nil) }); allocs != 0 {
		t.Fatalf("BatchExec of a stored row allocates %v per run, want 0", allocs)
	}
}

// TestCalibrateRequiresSolution pins the error contract on partial
// recommendations.
func TestCalibrateRequiresSolution(t *testing.T) {
	_, adv := testAdvisor(t)
	if _, err := adv.Calibrate(nil, CalibrateOptions{}); err == nil {
		t.Error("Calibrate(nil) did not error")
	}
	if _, err := adv.Calibrate(&Recommendation{}, CalibrateOptions{}); err == nil {
		t.Error("Calibrate on a solution-less recommendation did not error")
	}
}

// TestRenderIncludesCalibration pins that a calibrated recommendation
// renders its calibration line.
func TestRenderIncludesCalibration(t *testing.T) {
	_, adv := testAdvisor(t)
	w := testWorkload(t).Slice(0, 30)
	rec, err := adv.Recommend(w, Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := adv.Calibrate(rec, CalibrateOptions{Samples: 8, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if rec.Calibration == nil || len(rec.Calibration.Samples) == 0 {
		t.Fatalf("calibration not attached: %+v", rec.Calibration)
	}
	var sb strings.Builder
	rec.Render(&sb)
	if !strings.Contains(sb.String(), "calibration:") {
		t.Errorf("render missing calibration line:\n%s", sb.String())
	}
	// The monitor hook is optional; a nil monitor must not be required.
	var mon *calib.Monitor
	if _, err := adv.Calibrate(rec, CalibrateOptions{Samples: 4, Seed: 1, Monitor: mon}); err != nil {
		t.Errorf("Calibrate with nil monitor: %v", err)
	}
}
