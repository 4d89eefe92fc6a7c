package explain

import (
	"context"
	"encoding/json"
	"math"
	"testing"

	"dyndesign/internal/core"
)

var bg = context.Background()

// phaseModel is a phase-structured synthetic cost model: stage i's
// favored index is phases[i] and executes at cost 20 under it versus
// 100 bare. Structure 2 is a noise index whose cost dips pseudo-randomly
// per (stage, seed) — occasionally below the favored index by more than
// a round-trip transition, which is exactly the transient an
// unconstrained solver overfits to and a change-bounded one ignores.
// Reseeding redraws the noise while preserving the phases, so the model
// doubles as its own audit perturbation.
type phaseModel struct {
	seed   int64
	phases []int
}

func (m *phaseModel) noise(stage int) float64 {
	x := uint64(m.seed)*0x9e3779b97f4a7c15 + uint64(stage)*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

func (m *phaseModel) Exec(stage int, c core.Config) float64 {
	if c == core.ConfigOf(2) {
		return 100 - 100*m.noise(stage)
	}
	if c == core.ConfigOf(m.phases[stage]) {
		return 20
	}
	return 100
}

func (m *phaseModel) Trans(from, to core.Config) float64 {
	added, removed := from.Diff(to)
	return 4*float64(len(added)) + 1*float64(len(removed))
}

func (m *phaseModel) Size(c core.Config) float64 { return float64(c.Count()) }

// phaseProblem builds the canonical fixture: two 20-stage phases
// favoring index 0 then index 1, noise index 2 available, k = 2 under
// FreeEndpoints.
func phaseProblem(seed int64, parallelism int) *core.Problem {
	const stages = 40
	phases := make([]int, stages)
	for i := stages / 2; i < stages; i++ {
		phases[i] = 1
	}
	return &core.Problem{
		Stages:      stages,
		Configs:     []core.Config{0, core.ConfigOf(0), core.ConfigOf(1), core.ConfigOf(2)},
		K:           2,
		Policy:      core.FreeEndpoints,
		Model:       &phaseModel{seed: seed, phases: phases},
		Parallelism: parallelism,
	}
}

func perturbPhase(p *core.Problem) PerturbFunc {
	base := p.Model.(*phaseModel)
	return func(trial int, seed int64) (*core.Problem, error) {
		pp := *p
		pp.Model = &phaseModel{seed: seed, phases: base.phases}
		return &pp, nil
	}
}

func buildFixture(t *testing.T, parallelism int) (*core.Problem, *core.Solution, *Explanation) {
	t.Helper()
	p := phaseProblem(1, parallelism)
	sol, err := core.SolveKAware(bg, p)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Build(bg, p, sol, Options{
		StructureNames: []string{"I(a)", "I(b)", "I(noise)"},
		KSweepDelta:    2,
		AuditTrials:    5,
		AuditSeed:      100,
		Perturb:        perturbPhase(p),
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Strategy = string(core.StrategyKAware) // the label the advisor sets
	return p, sol, e
}

// TestAttributionAccounts pins the cost-attribution invariants: the
// transition list's TRANS costs sum — bit for bit — to the solution's
// TransCost, run EXEC totals reconcile with ExecCost, and every removal
// penalty of an exactly-solved sequence is (numerically) non-negative.
func TestAttributionAccounts(t *testing.T) {
	p, sol, e := buildFixture(t, 1)
	if e.Cost != sol.Cost || e.ExecCost != sol.ExecCost || e.TransCost != sol.TransCost {
		t.Fatalf("explanation cost header diverges from solution")
	}
	var trans float64
	for _, tr := range e.Transitions {
		trans += tr.TransCost
	}
	if trans != sol.TransCost {
		t.Errorf("transition TRANS sum %v != solution TransCost %v", trans, sol.TransCost)
	}
	// Stages before the first change execute under a run with no
	// transition entry; reconcile EXEC by adding them back.
	covered := 0.0
	for _, tr := range e.Transitions {
		covered += tr.RunExecCost
	}
	uncovered := 0.0
	for i := 0; i < p.Stages && sol.Designs[i] == p.Initial; i++ {
		uncovered += p.Model.Exec(i, sol.Designs[i])
	}
	if !almostEqual(covered+uncovered, sol.ExecCost) {
		t.Errorf("run EXEC totals %v + leading run %v != ExecCost %v", covered, uncovered, sol.ExecCost)
	}
	for _, tr := range e.Transitions {
		if tr.RunLength == 0 {
			continue // final teardown
		}
		if tr.RemovalPenalty < -1e-6 {
			t.Errorf("@stage %d: exact solution has negative removal penalty %v", tr.Stage, tr.RemovalPenalty)
		}
		if len(tr.TopStages) == 0 || len(tr.TopStages) > 3 {
			t.Errorf("@stage %d: %d top stages", tr.Stage, len(tr.TopStages))
		}
		for i := 1; i < len(tr.TopStages); i++ {
			if tr.TopStages[i].Delta > tr.TopStages[i-1].Delta {
				t.Errorf("@stage %d: top stages not sorted by delta", tr.Stage)
			}
		}
	}
	if sol.Changes < 1 || sol.Changes > 2 {
		t.Fatalf("fixture solved with %d changes under k=2", sol.Changes)
	}
}

// TestKSweepShape pins the counterfactual curve: spans [0, k+delta],
// monotone non-increasing, marginals consistent, and the recommended
// bound's point matches the solution cost.
func TestKSweepShape(t *testing.T) {
	p, sol, e := buildFixture(t, 1)
	if len(e.KSweep) != p.K+2+1 {
		t.Fatalf("sweep has %d points, want %d", len(e.KSweep), p.K+3)
	}
	for i, pt := range e.KSweep {
		if pt.K != i {
			t.Fatalf("point %d has K=%d", i, pt.K)
		}
		if !pt.Feasible {
			t.Fatalf("point k=%d infeasible under FreeEndpoints", i)
		}
		if i > 0 {
			if pt.Cost > e.KSweep[i-1].Cost {
				t.Errorf("sweep not monotone at k=%d", i)
			}
			if !almostEqual(pt.Marginal, e.KSweep[i-1].Cost-pt.Cost) {
				t.Errorf("k=%d marginal %v inconsistent", i, pt.Marginal)
			}
		}
	}
	if !almostEqual(e.KSweep[p.K].Cost, sol.Cost) {
		t.Errorf("sweep at recommended k=%d is %v, solution cost %v", p.K, e.KSweep[p.K].Cost, sol.Cost)
	}
}

// TestKSweepClampedToStageCount pins that the sweep's length follows the
// problem, not the bound or the delta: a change bound far above the
// stage count (-k 1000000) or a huge -ksweep-delta renders at most the
// stage count's worth of points plus k = 0, and the curve has reached
// the unconstrained cost by its last point.
func TestKSweepClampedToStageCount(t *testing.T) {
	p := phaseProblem(1, 1)
	p.Stages, p.K = 50, 200000
	p.Model = &phaseModel{seed: 1, phases: make([]int, p.Stages)}
	sol, err := core.Solve(bg, p, core.StrategyKAware)
	if err != nil {
		t.Fatal(err)
	}
	unc := *p
	unc.K = core.Unconstrained
	opt, err := core.SolveUnconstrained(bg, &unc)
	if err != nil {
		t.Fatal(err)
	}
	for _, delta := range []int{2, 1_000_000} {
		e, err := Build(bg, p, sol, Options{KSweepDelta: delta})
		if err != nil {
			t.Fatal(err)
		}
		if got, most := len(e.KSweep), p.Stages+1; got > most {
			t.Fatalf("delta %d: sweep has %d points for %d stages, want at most %d", delta, got, p.Stages, most)
		}
		if last := e.KSweep[len(e.KSweep)-1]; last.Cost != opt.Cost {
			t.Errorf("delta %d: last sweep point costs %v, the unconstrained optimum %v", delta, last.Cost, opt.Cost)
		}
	}
}

// TestAuditConstrainedGeneralizes is the acceptance criterion: on a
// phase-structured trace with transient noise, the k=2 design's
// held-out regret over perturbed replays stays at or below the
// unconstrained design's — the unconstrained optimum overfits the noise
// index, the constrained one cannot afford to.
func TestAuditConstrainedGeneralizes(t *testing.T) {
	_, _, e := buildFixture(t, 1)
	a := e.Audit
	if a == nil {
		t.Fatal("audit missing")
	}
	if len(a.Constrained.Trials) != 5 || len(a.Unconstrained.Trials) != 5 {
		t.Fatalf("trial counts %d/%d", len(a.Constrained.Trials), len(a.Unconstrained.Trials))
	}
	if a.Unconstrained.Changes <= a.Constrained.Changes {
		t.Fatalf("fixture too tame: unconstrained used %d changes vs constrained %d — nothing to overfit",
			a.Unconstrained.Changes, a.Constrained.Changes)
	}
	if a.Constrained.MeanRegret > a.Unconstrained.MeanRegret {
		t.Errorf("constrained held-out regret %v exceeds unconstrained %v",
			a.Constrained.MeanRegret, a.Unconstrained.MeanRegret)
	}
	if a.Unconstrained.MeanRegret <= 0 {
		t.Errorf("unconstrained design shows no held-out regret (%v); the audit fixture lost its teeth",
			a.Unconstrained.MeanRegret)
	}
	for _, tr := range append(append([]Trial(nil), a.Constrained.Trials...), a.Unconstrained.Trials...) {
		if tr.Regret < 0 {
			t.Errorf("negative regret %v for seed %d: oracle beaten by a fixed design", tr.Regret, tr.Seed)
		}
	}
}

// TestBuildDeterministicParallel pins that the whole explanation —
// attribution, sweep, and audit — is bit-identical between the serial
// path and Parallelism > 1 (run under -race in CI).
func TestBuildDeterministicParallel(t *testing.T) {
	_, _, serial := buildFixture(t, 1)
	_, _, par := buildFixture(t, 4)
	sj, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}
	pj, err := json.Marshal(par)
	if err != nil {
		t.Fatal(err)
	}
	if string(sj) != string(pj) {
		t.Errorf("parallel explanation diverges from serial:\n%s\nvs\n%s", sj, pj)
	}
}

// TestBuildValidation pins the error paths.
func TestBuildValidation(t *testing.T) {
	p := phaseProblem(1, 1)
	if _, err := Build(bg, p, nil, Options{}); err == nil {
		t.Error("Build accepted a nil solution")
	}
	if _, err := Build(bg, p, &core.Solution{Designs: make([]core.Config, 3)}, Options{}); err == nil {
		t.Error("Build accepted a solution of the wrong length")
	}
}

// TestExplanationJSONRoundTrip pins the schema version and that the
// JSON form round-trips losslessly.
func TestExplanationJSONRoundTrip(t *testing.T) {
	_, _, e := buildFixture(t, 1)
	if e.SchemaVersion != 1 {
		t.Fatalf("schema version %d", e.SchemaVersion)
	}
	buf, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	var back Explanation
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	buf2, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf) != string(buf2) {
		t.Error("JSON round trip not lossless")
	}
}

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}
