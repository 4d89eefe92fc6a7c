package tuner

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"dyndesign/internal/advisor"
	"dyndesign/internal/candidates"
	"dyndesign/internal/core"
	"dyndesign/internal/engine"
	"dyndesign/internal/workload"
)

// bg is the context used by tests that don't exercise cancellation.
var bg = context.Background()

const (
	testRows  = 30000
	testBlock = 50
)

func fixture(t testing.TB) (*advisor.Advisor, []*workload.Workload) {
	t.Helper()
	db := engine.New()
	db.MustExec("CREATE TABLE t (a INT, b INT, c INT, d INT)")
	domain := workload.DomainForRows(testRows)
	rng := rand.New(rand.NewSource(31))
	var sb strings.Builder
	for i := 0; i < testRows; i += 500 {
		sb.Reset()
		sb.WriteString("INSERT INTO t VALUES ")
		for j := 0; j < 500; j++ {
			if j > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d, %d, %d)",
				rng.Int63n(domain), rng.Int63n(domain), rng.Int63n(domain), rng.Int63n(domain))
		}
		db.MustExec(sb.String())
	}
	if err := db.Analyze("t"); err != nil {
		t.Fatal(err)
	}
	structures := candidates.PaperStructures("t")
	adv, err := advisor.New(db, advisor.DesignSpace{
		Table:      "t",
		Structures: structures,
		Configs:    advisor.SingleIndexConfigs(len(structures)),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Three representative traces: same trends (W1 pattern), different
	// seeds — plus W3, the out-of-phase variant.
	var traces []*workload.Workload
	for i, spec := range []struct {
		name string
		seed int64
	}{{"W1", 1}, {"W1", 2}, {"W3", 3}} {
		w, err := workload.PaperWorkload(spec.name, testRows, testBlock, spec.seed+int64(i))
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, w)
	}
	return adv, traces
}

func opts() advisor.Options {
	f := core.Config(0)
	return advisor.Options{Final: &f}
}

func TestCrossValidateKPrefersModerateK(t *testing.T) {
	adv, traces := fixture(t)
	choice, err := CrossValidateK(bg, adv, traces, opts(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(choice.Curve) != 9 {
		t.Fatalf("curve has %d points", len(choice.Curve))
	}
	if choice.Method != "cross-validation" {
		t.Errorf("method = %s", choice.Method)
	}
	// Held-out cost at the chosen k must be the curve minimum.
	best := math.Inf(1)
	bestK := -1
	for _, p := range choice.Curve {
		if p.HoldoutCost < best {
			best = p.HoldoutCost
			bestK = p.K
		}
	}
	if choice.K != bestK {
		t.Errorf("chose k=%d, curve minimum at k=%d", choice.K, bestK)
	}
	// The major-shift structure has 2 shifts; with out-of-phase minor
	// shifts in the holdout, over-fitting large k must not win: the
	// chosen k should be small-to-moderate.
	if choice.K > 6 {
		t.Errorf("cross-validation chose k=%d; expected the trend-following regime (<=6)", choice.K)
	}
	// Training cost decreases (weakly) with k.
	for i := 1; i < len(choice.Curve); i++ {
		if choice.Curve[i].TrainCost > choice.Curve[i-1].TrainCost+1e-6 {
			t.Errorf("training cost increased at k=%d", choice.Curve[i].K)
		}
	}
}

func TestCrossValidateKValidation(t *testing.T) {
	adv, traces := fixture(t)
	if _, err := CrossValidateK(bg, adv, traces[:1], opts(), 4); err == nil {
		t.Error("single trace accepted")
	}
	if _, err := CrossValidateK(bg, adv, traces, opts(), -1); err == nil {
		t.Error("negative maxK accepted")
	}
	short := traces[1].Slice(0, 100)
	if _, err := CrossValidateK(bg, adv, []*workload.Workload{traces[0], short}, opts(), 2); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestElbowKCapturesMajorShifts(t *testing.T) {
	adv, traces := fixture(t)
	choice, err := ElbowK(bg, adv, traces[0], opts(), -1, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if choice.Method != "elbow" {
		t.Errorf("method = %s", choice.Method)
	}
	// W1's quality curve drops hard at k=2 (the two major shifts); the
	// 60% capture rule must land there.
	if choice.K != 2 {
		t.Errorf("elbow chose k=%d, want 2", choice.K)
	}
	// The curve is monotone non-increasing.
	for i := 1; i < len(choice.Curve); i++ {
		if choice.Curve[i].TrainCost > choice.Curve[i-1].TrainCost+1e-6 {
			t.Errorf("curve increased at k=%d", choice.Curve[i].K)
		}
	}
}

func TestElbowKExtremes(t *testing.T) {
	adv, traces := fixture(t)
	// Capture fraction 1.0: must go all the way to the unconstrained
	// optimum's change count (within maxK).
	choice, err := ElbowK(bg, adv, traces[0], opts(), 4, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if choice.K != 4 {
		t.Errorf("full capture with maxK=4 chose %d", choice.K)
	}
	// Tiny fraction: the first k with any improvement at all wins, which
	// is at most the major-shift k.
	choice, err = ElbowK(bg, adv, traces[0], opts(), -1, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if choice.K > 2 {
		t.Errorf("epsilon capture chose %d", choice.K)
	}
	if _, err := ElbowK(bg, adv, traces[0], opts(), -1, 1.5); err == nil {
		t.Error("capture fraction > 1 accepted")
	}
}

// TestTunerRefusesHeuristicStrategies: both procedures refuse the
// strategy table's heuristics, whose k-curves may rise with k, and answer
// with an exact strategy; on this small fixture the partitioned solver
// answers with no gap and chooses the k the default strategy chooses.
func TestTunerRefusesHeuristicStrategies(t *testing.T) {
	adv, traces := fixture(t)
	want, err := ElbowK(bg, adv, traces[0], opts(), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range core.Strategies() {
		o := opts()
		o.Strategy = s
		cv, cvErr := CrossValidateK(bg, adv, traces, o, 2)
		elbow, elbowErr := ElbowK(bg, adv, traces[0], o, 4, 0)
		if core.Heuristic(s) {
			if cvErr == nil || elbowErr == nil {
				t.Errorf("%s: CrossValidateK error %v, ElbowK error %v; want both refused", s, cvErr, elbowErr)
			}
			continue
		}
		if cvErr != nil || elbowErr != nil {
			t.Fatalf("%s: CrossValidateK error %v, ElbowK error %v", s, cvErr, elbowErr)
		}
		if len(cv.Curve) != 3 || elbow.K != want.K {
			t.Errorf("%s: %d cross-validation points, elbow k=%d; want 3 and k=%d", s, len(cv.Curve), elbow.K, want.K)
		}
	}
	if !core.Heuristic(core.StrategyGreedySeq) || !core.Heuristic(core.StrategyMerge) || core.Heuristic(core.StrategyKAware) || core.Heuristic("") {
		t.Error("core.Heuristic must name greedyseq and merge, and neither kaware nor the default")
	}
}

// TestExactAnswer: a recommendation an exact strategy asked for is still
// refused when a heuristic or last-known-good rung answered it (as
// opts.Fallback allows) or when its solver stopped with a positive gap
// (the partitioned solver's beam-pruned search).
func TestExactAnswer(t *testing.T) {
	for _, c := range []struct {
		rec advisor.Recommendation
		ok  bool
	}{
		{advisor.Recommendation{Rung: core.StrategyKAware}, true},
		{advisor.Recommendation{Rung: core.StrategyPartitioned, Degraded: true}, true},
		{advisor.Recommendation{Rung: core.StrategyGreedySeq, Degraded: true}, false},
		{advisor.Recommendation{Rung: core.StrategyMerge, Degraded: true}, false},
		{advisor.Recommendation{Rung: core.RungLastKnownGood, Degraded: true}, false},
		{advisor.Recommendation{Rung: core.StrategyPartitioned, Gap: 1}, false},
	} {
		if err := exactAnswer(&c.rec, 2); (err == nil) != c.ok {
			t.Errorf("rung %q, degraded %t, gap %g: error %v; want accepted %t", c.rec.Rung, c.rec.Degraded, c.rec.Gap, err, c.ok)
		}
	}
}

func TestRecommendMultiBalancesTraces(t *testing.T) {
	adv, traces := fixture(t)
	o := opts()
	o.K = 2
	multi, err := adv.RecommendMulti(traces, o)
	if err != nil {
		t.Fatal(err)
	}
	if multi.Solution.Changes > 2 {
		t.Errorf("multi changes = %d", multi.Solution.Changes)
	}
	single, err := adv.Recommend(traces[0], o)
	if err != nil {
		t.Fatal(err)
	}
	// The multi-trace design's mean held-out cost over all traces must
	// not exceed the single-trace design's (it optimizes that mean).
	meanOf := func(rec *advisor.Recommendation) float64 {
		total := 0.0
		for _, tr := range traces {
			c, err := adv.EvaluateOn(rec, tr, o)
			if err != nil {
				t.Fatal(err)
			}
			total += c
		}
		return total / float64(len(traces))
	}
	if mMulti, mSingle := meanOf(multi), meanOf(single); mMulti > mSingle+1e-6 {
		t.Errorf("multi-trace mean %.0f worse than single-trace %.0f", mMulti, mSingle)
	}
	// One trace degenerates to Recommend.
	one, err := adv.RecommendMulti(traces[:1], o)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(one.Solution.Cost-single.Solution.Cost) > 1e-6 {
		t.Errorf("single-trace multi %.0f != recommend %.0f", one.Solution.Cost, single.Solution.Cost)
	}
}

func TestRecommendMultiValidation(t *testing.T) {
	adv, traces := fixture(t)
	o := opts()
	o.K = 1
	if _, err := adv.RecommendMulti(nil, o); err == nil {
		t.Error("no traces accepted")
	}
	short := traces[1].Slice(0, 10)
	if _, err := adv.RecommendMulti([]*workload.Workload{traces[0], short}, o); err == nil {
		t.Error("mismatched lengths accepted")
	}
}

func TestEvaluateOnMatchesProblemCost(t *testing.T) {
	adv, traces := fixture(t)
	o := opts()
	o.K = 2
	rec, err := adv.Recommend(traces[0], o)
	if err != nil {
		t.Fatal(err)
	}
	// Evaluating on the training trace reproduces the solution cost.
	self, err := adv.EvaluateOn(rec, traces[0], o)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(self-rec.Solution.Cost) > 1e-6*(1+rec.Solution.Cost) {
		t.Errorf("EvaluateOn(self) = %.2f, solution cost %.2f", self, rec.Solution.Cost)
	}
	if _, err := adv.EvaluateOn(rec, traces[1].Slice(0, 10), o); err == nil {
		t.Error("length mismatch accepted")
	}
}
