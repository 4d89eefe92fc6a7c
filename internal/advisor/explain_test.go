package advisor

import (
	"strings"
	"testing"

	"dyndesign/internal/core"
	"dyndesign/internal/explain"
	"dyndesign/internal/workload"
)

// TestRecommendExplain pins the advisor-level provenance wiring: a
// recommendation explained after its solve carries a schema-versioned
// explanation whose attribution reconciles with the solution, whose
// k-sweep is monotone, and whose audit replays the design against
// block-bootstrap resamples of the real workload.
func TestRecommendExplain(t *testing.T) {
	_, adv := testAdvisor(t)
	w := testWorkload(t)
	rec, err := adv.Recommend(w, paperOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := adv.Explain(bg, rec, ExplainOptions{AuditTrials: 2, AuditSeed: 9}); err != nil {
		t.Fatal(err)
	}
	e := rec.Explanation
	if e == nil {
		t.Fatal("Explain did not attach an explanation")
	}
	if e.SchemaVersion != 1 || e.K != 2 || e.Stages != rec.Problem.Stages {
		t.Fatalf("explanation header = %+v", e)
	}
	if e.Cost != rec.Solution.Cost || e.ExecCost != rec.Solution.ExecCost || e.TransCost != rec.Solution.TransCost {
		t.Error("explanation cost header diverges from solution")
	}
	var trans float64
	for _, tr := range e.Transitions {
		trans += tr.TransCost
	}
	if trans != rec.Solution.TransCost {
		t.Errorf("transition TRANS sum %v != solution TransCost %v", trans, rec.Solution.TransCost)
	}
	// Interior transitions carry workload positions and SQL excerpts.
	for _, tr := range e.Transitions {
		if tr.RunLength == 0 {
			continue
		}
		if tr.Statement < 0 || tr.Statement >= w.Len() {
			t.Errorf("@stage %d: statement index %d outside the workload", tr.Stage, tr.Statement)
		}
		for _, s := range tr.TopStages {
			if s.SQL == "" {
				t.Errorf("@stage %d: stage %d impact missing its SQL excerpt", tr.Stage, s.Stage)
			}
		}
	}
	if len(e.KSweep) != 5 { // k=2 + default delta 2, plus k=0
		t.Fatalf("sweep has %d points", len(e.KSweep))
	}
	for i := 1; i < len(e.KSweep); i++ {
		if e.KSweep[i].Cost > e.KSweep[i-1].Cost {
			t.Errorf("k-sweep not monotone at k=%d", i)
		}
	}
	a := e.Audit
	if a == nil {
		t.Fatal("audit missing")
	}
	if len(a.Constrained.Trials) != 2 || len(a.Unconstrained.Trials) != 2 {
		t.Fatalf("audit trials %d/%d", len(a.Constrained.Trials), len(a.Unconstrained.Trials))
	}
	if a.Constrained.K != 2 || a.Unconstrained.K != core.Unconstrained {
		t.Fatalf("audit sides k = %d/%d", a.Constrained.K, a.Unconstrained.K)
	}
	for _, side := range []*explain.AuditSide{&a.Constrained, &a.Unconstrained} {
		for _, tr := range side.Trials {
			if tr.Regret < 0 {
				t.Errorf("negative held-out regret %v (seed %d, k=%d)", tr.Regret, tr.Seed, side.K)
			}
		}
	}
	var sb strings.Builder
	rec.Render(&sb)
	for _, want := range []string{"Decision provenance", "cost of constraint", "overfitting audit"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("rendered recommendation missing %q", want)
		}
	}
}

// TestExplainRequiresSolution pins the standalone Explain error path:
// a nil or unsolved recommendation is an error, not a panic.
func TestExplainRequiresSolution(t *testing.T) {
	_, adv := testAdvisor(t)
	for name, rec := range map[string]*Recommendation{"nil": nil, "unsolved": {}} {
		if _, err := adv.Explain(bg, rec, ExplainOptions{}); err == nil {
			t.Errorf("Explain accepted a %s recommendation", name)
		}
	}
}

// TestRecommendMultiAuditKeepsOptions pins that a multi-trace
// recommendation remembers the options it was solved under: Explain's
// audit re-assembles every resample through them, and under forgotten
// (zero) options it would compare the recommended design against a
// static, one-statement-per-stage oracle.
func TestRecommendMultiAuditKeepsOptions(t *testing.T) {
	_, adv := testAdvisor(t)
	other, err := workload.PaperWorkload("W1", testRows, testBlock, 78)
	if err != nil {
		t.Fatal(err)
	}
	opts := paperOpts(2)
	opts.SegmentSize = testBlock
	rec, err := adv.RecommendMulti([]*workload.Workload{testWorkload(t), other}, opts)
	if err != nil {
		t.Fatal(err)
	}
	p, err := adv.perturb(bg, rec)(0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if p.K != 2 || p.Stages != rec.Problem.Stages || p.Final == nil {
		t.Fatalf("perturbed problem has K=%d, %d stages, final constrained %v; the recommendation's has K=2, %d stages, true",
			p.K, p.Stages, p.Final != nil, rec.Problem.Stages)
	}
	e, err := adv.Explain(bg, rec, ExplainOptions{AuditTrials: 1, AuditSeed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if e.Audit == nil || e.Audit.Constrained.K != 2 {
		t.Fatalf("audit = %+v", e.Audit)
	}
}
