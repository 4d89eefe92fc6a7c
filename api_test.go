// Tests of the public facade: everything a downstream user touches goes
// through the dyndesign package, exercised here end to end.
package dyndesign_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dyndesign"
)

func buildAPIDatabase(t testing.TB, rows int) *dyndesign.Database {
	t.Helper()
	db := dyndesign.NewDatabase()
	db.MustExec("CREATE TABLE t (a INT, b INT, c INT, d INT)")
	var sb strings.Builder
	domain := rows / 5
	if domain < 1 {
		domain = 1
	}
	for i := 0; i < rows; i += 500 {
		sb.Reset()
		sb.WriteString("INSERT INTO t VALUES ")
		n := 500
		if rows-i < n {
			n = rows - i
		}
		for j := 0; j < n; j++ {
			if j > 0 {
				sb.WriteString(", ")
			}
			v := (i + j) * 7
			fmt.Fprintf(&sb, "(%d, %d, %d, %d)",
				v%domain, (v+1)%domain, (v+2)%domain, (v+3)%domain)
		}
		db.MustExec(sb.String())
	}
	if err := db.Analyze("t"); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestPublicAPIEndToEnd(t *testing.T) {
	db := buildAPIDatabase(t, 20000)

	w, err := dyndesign.PaperWorkload("W1", 20000, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	structures := dyndesign.PaperStructures("t")
	adv, err := dyndesign.NewAdvisor(db, dyndesign.DesignSpace{
		Table:      "t",
		Structures: structures,
		Configs:    dyndesign.SingleIndexConfigs(len(structures)),
	})
	if err != nil {
		t.Fatal(err)
	}
	empty := dyndesign.Config(0)
	rec, err := adv.Recommend(w, dyndesign.Options{K: 2, Final: &empty})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Solution.Changes > 2 {
		t.Errorf("changes = %d", rec.Solution.Changes)
	}
	report, err := dyndesign.Replay(db, w, rec, rec.PerStatement())
	if err != nil {
		t.Fatal(err)
	}
	if report.Statements != w.Len() {
		t.Errorf("replayed %d of %d statements", report.Statements, w.Len())
	}
	measured := float64(report.TotalPages())
	if measured < rec.Solution.Cost*0.8 || measured > rec.Solution.Cost*1.2 {
		t.Errorf("measured %.0f vs estimated %.0f", measured, rec.Solution.Cost)
	}
}

func TestPublicAPIStrategies(t *testing.T) {
	if len(dyndesign.Strategies()) != 4 {
		t.Errorf("strategies = %v", dyndesign.Strategies())
	}
	db := buildAPIDatabase(t, 10000)
	w, err := dyndesign.PaperWorkload("W1", 10000, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	structures := dyndesign.PaperStructures("t")
	adv, err := dyndesign.NewAdvisor(db, dyndesign.DesignSpace{
		Table:      "t",
		Structures: structures,
		Configs:    dyndesign.SingleIndexConfigs(len(structures)),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []dyndesign.Strategy{
		dyndesign.StrategyKAware, dyndesign.StrategyGreedySeq,
		dyndesign.StrategyMerge,
	} {
		rec, err := adv.Recommend(w, dyndesign.Options{K: 2, Strategy: s})
		if err != nil {
			t.Fatalf("strategy %s: %v", s, err)
		}
		if rec.Strategy != s {
			t.Errorf("recommendation reports strategy %s", rec.Strategy)
		}
	}
}

func TestPublicAPIWorkloadJSON(t *testing.T) {
	w, err := dyndesign.PaperWorkload("W3", 5000, 5, 9)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := w.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := dyndesign.ReadWorkloadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != w.Len() {
		t.Errorf("round trip %d != %d", got.Len(), w.Len())
	}
}

func TestPublicAPICandidates(t *testing.T) {
	w := &dyndesign.Workload{}
	s, err := dyndesign.NewStatement("SELECT a FROM t WHERE b = 3")
	if err != nil {
		t.Fatal(err)
	}
	w.Append("x", s)
	defs := dyndesign.CandidatesFromWorkload(w, "t", dyndesign.CandidateOptions{})
	if len(defs) == 0 {
		t.Fatal("no candidates")
	}
	found := false
	for _, d := range defs {
		if d.Name() == "I(b,a)" {
			found = true
		}
	}
	if !found {
		t.Errorf("covering candidate missing from %v", defs)
	}
}

func TestPublicAPIConfigs(t *testing.T) {
	c := dyndesign.Config(0).With(2).With(5)
	if c.Count() != 2 || !c.Has(5) {
		t.Errorf("config ops broken: %v", c)
	}
	if dyndesign.Unconstrained != -1 {
		t.Error("Unconstrained constant changed")
	}
	if dyndesign.FreeEndpoints == dyndesign.CountAll {
		t.Error("policies equal")
	}
}

func TestPublicAPISolveDirect(t *testing.T) {
	// Using the solvers with a custom cost model, without the engine.
	model := constModel{}
	p := &dyndesign.Problem{
		Stages:  4,
		Configs: []dyndesign.Config{0, 1},
		Model:   model,
		K:       1,
	}
	sol, err := dyndesign.Solve(p, dyndesign.StrategyKAware)
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Designs) != 4 {
		t.Errorf("designs = %v", sol.Designs)
	}
}

// constModel is a trivial custom cost model: config 1 is always better
// to execute but costs to build.
type constModel struct{}

func (constModel) Exec(stage int, c dyndesign.Config) float64 {
	if c == 1 {
		return 1
	}
	return 10
}
func (constModel) Trans(from, to dyndesign.Config) float64 {
	if from == to {
		return 0
	}
	return 5
}
func (constModel) Size(c dyndesign.Config) float64 { return float64(c.Count()) }

func TestPublicAPITuningSurface(t *testing.T) {
	db := buildAPIDatabase(t, 20000)
	structures := dyndesign.PaperStructures("t")
	space := dyndesign.DesignSpace{
		Table:      "t",
		Structures: structures,
		Configs:    dyndesign.SingleIndexConfigs(len(structures)),
	}
	adv, err := dyndesign.NewAdvisor(db, space)
	if err != nil {
		t.Fatal(err)
	}
	var traces []*dyndesign.Workload
	for seed := int64(1); seed <= 2; seed++ {
		w, err := dyndesign.PaperWorkload("W1", 20000, 20, seed)
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, w)
	}
	opts := dyndesign.Options{}

	cv, err := dyndesign.CrossValidateK(adv, traces, opts, 4)
	if err != nil || len(cv.Curve) != 5 {
		t.Fatalf("CrossValidateK: %+v, %v", cv, err)
	}
	elbow, err := dyndesign.ElbowK(adv, traces[0], opts, -1, 0)
	if err != nil || elbow.K < 0 {
		t.Fatalf("ElbowK: %+v, %v", elbow, err)
	}
	multi, err := dyndesign.RecommendMulti(adv, traces, dyndesign.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	cost, err := dyndesign.EvaluateRecommendationOn(adv, multi, traces[1], opts)
	if err != nil || cost <= 0 {
		t.Fatalf("EvaluateRecommendationOn: %f, %v", cost, err)
	}

	mon, err := dyndesign.NewAlerter(adv, space.Configs, dyndesign.Config(0), dyndesign.AlerterOptions{
		WindowSize: 50, CheckEvery: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	mixes := dyndesign.PaperMixes(20000)
	stmts, err := mixes["A"].Generate(rand.New(rand.NewSource(3)), 120)
	if err != nil {
		t.Fatal(err)
	}
	fired := false
	for _, s := range stmts {
		alert, err := mon.Observe(s)
		if err != nil {
			t.Fatal(err)
		}
		if alert != nil {
			fired = true
		}
	}
	if !fired {
		t.Error("alerter never fired on an unindexed hot workload")
	}
}

func TestPublicAPISnapshot(t *testing.T) {
	db := buildAPIDatabase(t, 2000)
	var buf bytes.Buffer
	if err := dyndesign.SaveDatabase(db, &buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := dyndesign.LoadDatabase(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.MustExec("SELECT COUNT(*) FROM t").Count; got != 2000 {
		t.Errorf("loaded rows = %d", got)
	}
}

func TestPublicAPIGeneratePhased(t *testing.T) {
	mixes := dyndesign.PaperMixes(1000)
	w, err := dyndesign.GeneratePhased("x", mixes, []dyndesign.PhaseSpec{{Mix: "A", Count: 5}}, 1)
	if err != nil || w.Len() != 5 {
		t.Fatalf("GeneratePhased: %v, %v", w, err)
	}
}
