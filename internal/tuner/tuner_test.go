package tuner

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"dyndesign/internal/advisor"
	"dyndesign/internal/candidates"
	"dyndesign/internal/core"
	"dyndesign/internal/engine"
	"dyndesign/internal/obs"
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
	if len(choice.Curve) != 9 || len(choice.Holdout) != 9 {
		t.Fatalf("curve has %d points, %d held-out costs", len(choice.Curve), len(choice.Holdout))
	}
	if choice.Method != "cross-validation" {
		t.Errorf("method = %s", choice.Method)
	}
	// Held-out cost at the chosen k must be the curve minimum.
	best := math.Inf(1)
	bestK := -1
	for k, held := range choice.Holdout {
		if held < best {
			best = held
			bestK = k
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
		if choice.Curve[i].Cost > choice.Curve[i-1].Cost+1e-6 {
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
		if choice.Curve[i].Cost > choice.Curve[i-1].Cost+1e-6 {
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
	for _, frac := range []float64{1.5, math.NaN(), math.Inf(1)} {
		if _, err := ElbowK(bg, adv, traces[0], opts(), -1, frac); err == nil {
			t.Errorf("capture fraction %v accepted", frac)
		}
	}
}

// TestTunerRefusesHeuristicStrategies: both procedures refuse the
// strategy table's heuristics, whose k-curves may rise with k, and the
// options that bound or replace single solves; on this small fixture
// every exact strategy chooses the k the default strategy chooses.
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
	for name, set := range map[string]func(*advisor.Options){
		"Fallback":       func(o *advisor.Options) { o.Fallback = true },
		"Timeout":        func(o *advisor.Options) { o.Timeout = time.Minute },
		"MaxWhatIfCalls": func(o *advisor.Options) { o.MaxWhatIfCalls = 1 << 40 },
	} {
		o := opts()
		set(&o)
		_, cvErr := CrossValidateK(bg, adv, traces, o, 2)
		_, elbowErr := ElbowK(bg, adv, traces[0], o, 4, 0)
		for _, err := range []error{cvErr, elbowErr} {
			if err == nil || !strings.Contains(err.Error(), "ctx") {
				t.Errorf("%s: error %v; want a refusal naming ctx as the only bound", name, err)
			}
		}
	}
	if _, err := ElbowK(bg, adv, traces[0], advisor.Options{Strategy: "nosuch"}, 4, 0); err == nil {
		t.Error("unknown strategy accepted")
	}
	if !core.Heuristic(core.StrategyGreedySeq) || !core.Heuristic(core.StrategyMerge) || core.Heuristic(core.StrategyKAware) || core.Heuristic("") {
		t.Error("core.Heuristic must name greedyseq and merge, and neither kaware nor the default")
	}
}

// TestTunerHonoursCancellation: ctx is the one run's only bound, so a
// cancelled ctx stops both procedures with its error.
func TestTunerHonoursCancellation(t *testing.T) {
	adv, traces := fixture(t)
	ctx, cancel := context.WithCancel(bg)
	cancel()
	if _, err := CrossValidateK(ctx, adv, traces, opts(), 4); !errors.Is(err, context.Canceled) {
		t.Errorf("CrossValidateK under a cancelled ctx: %v", err)
	}
	if _, err := ElbowK(ctx, adv, traces[0], opts(), -1, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("ElbowK under a cancelled ctx: %v", err)
	}
}

// loopPoint is one k of the per-k loop below.
type loopPoint struct {
	k              int
	train, holdout float64
	designs        []core.Config
}

// perKCrossValidate and perKElbow are the procedures as they ran before
// the tuner read one k-curve: one RecommendContext per k (plus one
// unconstrained for the elbow rule), every held-out trace costed through
// EvaluateOn. They are the oracle of TestTunerMatchesPerKLoop.
func perKCrossValidate(adv *advisor.Advisor, traces []*workload.Workload, opts advisor.Options, maxK int) (int, []loopPoint, error) {
	var curve []loopPoint
	chosen, best := 0, math.Inf(1)
	for k := 0; k <= maxK; k++ {
		o := opts
		o.K = k
		rec, err := adv.RecommendContext(bg, traces[0], o)
		if err != nil {
			return 0, nil, err
		}
		var held float64
		for _, tr := range traces[1:] {
			c, err := adv.EvaluateOn(rec, tr, o)
			if err != nil {
				return 0, nil, err
			}
			held += c
		}
		held /= float64(len(traces) - 1)
		curve = append(curve, loopPoint{k, rec.Solution.Cost, held, rec.Solution.Designs})
		if held < best {
			best, chosen = held, k
		}
	}
	return chosen, curve, nil
}

func perKElbow(adv *advisor.Advisor, trace *workload.Workload, opts advisor.Options, maxK int, captureFrac float64) (int, []loopPoint, error) {
	o := opts
	o.K = core.Unconstrained
	unc, err := adv.RecommendContext(bg, trace, o)
	if err != nil {
		return 0, nil, err
	}
	limit := unc.Solution.Changes
	if maxK >= 0 && maxK < limit {
		limit = maxK
	}
	var curve []loopPoint
	var staticCost float64
	chosen := -1
	for k := 0; k <= limit; k++ {
		o.K = k
		rec, err := adv.RecommendContext(bg, trace, o)
		if err != nil {
			return 0, nil, err
		}
		cost := rec.Solution.Cost
		curve = append(curve, loopPoint{k, cost, math.NaN(), rec.Solution.Designs})
		if k == 0 {
			staticCost = cost
		}
		attainable := staticCost - unc.Solution.Cost
		if chosen < 0 && (attainable <= 0 || staticCost-cost >= captureFrac*attainable) {
			chosen = k
		}
	}
	if chosen < 0 {
		chosen = limit
	}
	return chosen, curve, nil
}

// TestTunerMatchesPerKLoop is the differential test of the one-curve
// tuner against the per-k loop it replaced: under both change policies
// both procedures choose the same k, and every point's training cost
// and held-out cost are the loop's bit for bit. A point whose design
// differs only through a cost tie is logged. With an initial design
// outside the candidate list, k = 0 is infeasible under CountAll, and
// both the loop and the tuner refuse.
func TestTunerMatchesPerKLoop(t *testing.T) {
	adv, traces := fixture(t)
	same := func(what string, gotK, wantK int, got []core.KPoint, holdout []float64, want []loopPoint) {
		t.Helper()
		if gotK != wantK || len(got) != len(want) {
			t.Fatalf("%s: k=%d over %d points, per-k loop k=%d over %d", what, gotK, len(got), wantK, len(want))
		}
		for k, w := range want {
			if got[k].K != k || math.Float64bits(got[k].Cost) != math.Float64bits(w.train) {
				t.Errorf("%s, k=%d: point %d costs %v, per-k loop %v", what, k, got[k].K, got[k].Cost, w.train)
			}
			if holdout != nil && math.Float64bits(holdout[k]) != math.Float64bits(w.holdout) {
				t.Errorf("%s, k=%d: held-out cost %v, per-k loop %v", what, k, holdout[k], w.holdout)
			}
			if !reflect.DeepEqual(got[k].Designs, w.designs) {
				t.Logf("%s, k=%d: design differs from the per-k loop's at equal cost:\n  curve %s\n  loop  %s", what, k, runs(got[k].Designs), runs(w.designs))
			}
		}
	}
	for _, policy := range []core.ChangePolicy{core.FreeEndpoints, core.CountAll} {
		o := opts()
		o.Policy = policy
		wantK, want, err := perKCrossValidate(adv, traces, o, 8)
		if err != nil {
			t.Fatal(err)
		}
		cv, err := CrossValidateK(bg, adv, traces, o, 8)
		if err != nil {
			t.Fatal(err)
		}
		same(fmt.Sprintf("%v cross-validation", policy), cv.K, wantK, cv.Curve, cv.Holdout, want)
		for _, c := range []struct {
			maxK int
			frac float64
		}{{-1, DefaultCaptureFraction}, {-1, 1}, {4, 1}, {3, 1e-9}} {
			wantK, want, err := perKElbow(adv, traces[0], o, c.maxK, c.frac)
			if err != nil {
				t.Fatal(err)
			}
			elbow, err := ElbowK(bg, adv, traces[0], o, c.maxK, c.frac)
			if err != nil {
				t.Fatal(err)
			}
			same(fmt.Sprintf("%v elbow (maxK %d, fraction %g)", policy, c.maxK, c.frac), elbow.K, wantK, elbow.Curve, nil, want)
		}
	}

	o := opts()
	o.Policy = core.CountAll
	o.Initial = core.ConfigOf(0) | core.ConfigOf(1) // a valid TRANS source, not a candidate
	if _, _, err := perKCrossValidate(adv, traces, o, 2); err == nil {
		t.Fatal("per-k loop answered k = 0 with the initial design unusable under CountAll")
	}
	if _, _, err := perKElbow(adv, traces[0], o, 2, 0.6); err == nil {
		t.Fatal("per-k elbow answered k = 0 with the initial design unusable under CountAll")
	}
	if cv, err := CrossValidateK(bg, adv, traces, o, 2); err == nil {
		t.Errorf("CrossValidateK answered k = 0 with the initial design unusable under CountAll: %+v", cv)
	}
	if elbow, err := ElbowK(bg, adv, traces[0], o, 2, 0.6); err == nil {
		t.Errorf("ElbowK answered k = 0 with the initial design unusable under CountAll: %+v", elbow)
	}
}

// runs renders a design sequence as configuration×length runs.
func runs(designs []core.Config) string {
	var sb strings.Builder
	for i := 0; i < len(designs); {
		j := i
		for j < len(designs) && designs[j] == designs[i] {
			j++
		}
		fmt.Fprintf(&sb, "%d×%d ", designs[i], j-i)
		i = j
	}
	return strings.TrimSpace(sb.String())
}

// TestTunerBuildsOneMatrix: a traced tuner call builds the training
// problem's cost tables once, whatever the number of k it reads.
func TestTunerBuildsOneMatrix(t *testing.T) {
	adv, traces := fixture(t)
	for name, run := range map[string]func(advisor.Options) error{
		"CrossValidateK": func(o advisor.Options) error { _, err := CrossValidateK(bg, adv, traces, o, 8); return err },
		"ElbowK":         func(o advisor.Options) error { _, err := ElbowK(bg, adv, traces[0], o, -1, 0); return err },
	} {
		agg := obs.NewAggregator()
		o := opts()
		o.Tracer = obs.NewTracer(agg)
		if err := run(o); err != nil {
			t.Fatal(err)
		}
		builds := 0
		for _, st := range agg.Snapshot() {
			if st.Name == core.SpanMatrixBuild {
				builds = int(st.Count)
			}
		}
		if builds != 1 {
			t.Errorf("%s: %d %s spans, want 1", name, builds, core.SpanMatrixBuild)
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
