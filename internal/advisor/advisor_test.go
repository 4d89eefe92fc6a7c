package advisor

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"dyndesign/internal/candidates"
	"dyndesign/internal/catalog"
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

// buildDB loads the paper table at test scale.
func buildDB(t testing.TB) *engine.Database {
	t.Helper()
	db := engine.New()
	db.MustExec("CREATE TABLE t (a INT, b INT, c INT, d INT)")
	domain := workload.DomainForRows(testRows)
	rng := rand.New(rand.NewSource(21))
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
	return db
}

func paperSpace() DesignSpace {
	structures := candidates.PaperStructures("t")
	return DesignSpace{Table: "t", Structures: structures, Configs: SingleIndexConfigs(len(structures))}
}

func testAdvisor(t testing.TB) (*engine.Database, *Advisor) {
	t.Helper()
	db := buildDB(t)
	adv, err := New(db, paperSpace())
	if err != nil {
		t.Fatal(err)
	}
	return db, adv
}

func testWorkload(t testing.TB) *workload.Workload {
	t.Helper()
	w, err := workload.PaperWorkload("W1", testRows, testBlock, 77)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func paperOpts(k int) Options {
	f := core.Config(0)
	return Options{K: k, Final: &f}
}

func TestNewValidation(t *testing.T) {
	db := buildDB(t)
	if _, err := New(db, DesignSpace{Table: "t"}); err == nil {
		t.Error("empty design space accepted")
	}
	if _, err := New(db, DesignSpace{Table: "missing", Structures: candidates.PaperStructures("missing")}); err == nil {
		t.Error("missing table accepted")
	}
	big := make([]catalog.IndexDef, 65)
	for i := range big {
		big[i] = catalog.IndexDef{Table: "t", Columns: []string{"a"}}
	}
	if _, err := New(db, DesignSpace{Table: "t", Structures: big}); err == nil {
		t.Error("65 structures accepted")
	}
	bad := DesignSpace{Table: "t", Structures: []catalog.IndexDef{{Table: "t", Columns: []string{"zzz"}}}}
	if _, err := New(db, bad); err == nil {
		t.Error("structure on unknown column accepted")
	}
	// Unanalyzed table refused.
	db2 := engine.New()
	db2.MustExec("CREATE TABLE t (a INT, b INT, c INT, d INT)")
	if _, err := New(db2, paperSpace()); err == nil {
		t.Error("unanalyzed table accepted")
	}
}

func TestSingleIndexConfigs(t *testing.T) {
	cfgs := SingleIndexConfigs(3)
	if len(cfgs) != 4 {
		t.Fatalf("configs = %v", cfgs)
	}
	if cfgs[0] != 0 {
		t.Error("first config not empty")
	}
	for i := 1; i < 4; i++ {
		if cfgs[i].Count() != 1 || !cfgs[i].Has(i-1) {
			t.Errorf("config %d = %v", i, cfgs[i])
		}
	}
}

func TestProblemValidatesStatements(t *testing.T) {
	_, adv := testAdvisor(t)
	bad := &workload.Workload{}
	bad.Append("", workload.MustStatement("SELECT zzz FROM t"))
	if _, _, err := adv.Problem(bad, paperOpts(1)); err == nil {
		t.Error("unknown column accepted")
	}
	ddl := &workload.Workload{}
	ddl.Append("", workload.MustStatement("CREATE INDEX ON t (a)"))
	if _, _, err := adv.Problem(ddl, paperOpts(1)); err == nil {
		t.Error("DDL workload statement accepted")
	}
	if _, _, err := adv.Problem(&workload.Workload{}, paperOpts(1)); err == nil {
		t.Error("empty workload accepted")
	}
}

func TestWhatIfModelProperties(t *testing.T) {
	_, adv := testAdvisor(t)
	w := testWorkload(t)
	p, _, err := adv.Problem(w, paperOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	m := p.Model
	empty := core.Config(0)
	one := core.ConfigOf(0)
	two := core.ConfigOf(0, 1)

	if m.Trans(one, one) != 0 {
		t.Error("Trans(c, c) != 0")
	}
	if m.Trans(empty, one) <= 0 {
		t.Error("build cost not positive")
	}
	if m.Trans(one, empty) <= 0 {
		t.Error("drop cost not positive")
	}
	if m.Trans(empty, two) <= m.Trans(empty, one) {
		t.Error("building two indexes not costlier than one")
	}
	if math.Abs(m.Size(two)-m.Size(one)-m.Size(core.ConfigOf(1))) > 1e-9 {
		t.Error("Size not additive over structures")
	}
	// EXEC under a useful index is cheaper than under none for an
	// a-query stage. Find one.
	for i, s := range w.Statements {
		if strings.Contains(s.SQL, "WHERE a =") {
			withIdx := m.Exec(i, core.ConfigOf(0)) // I(a)
			without := m.Exec(i, empty)
			if withIdx >= without {
				t.Errorf("stage %d: I(a) exec %.1f >= empty %.1f", i, withIdx, without)
			}
			break
		}
	}
	// Memoization: repeated calls agree.
	if m.Exec(0, one) != m.Exec(0, one) {
		t.Error("Exec not deterministic")
	}
}

func TestRecommendStatic(t *testing.T) {
	_, adv := testAdvisor(t)
	w := testWorkload(t)
	rec, err := adv.RecommendStatic(w, paperOpts(99))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Solution.Changes != 0 {
		t.Errorf("static recommendation has %d changes", rec.Solution.Changes)
	}
	first := rec.Solution.Designs[0]
	for _, c := range rec.Solution.Designs {
		if c != first {
			t.Fatal("static design varies")
		}
	}
	// For W1 (all four columns queried, one index allowed), the best
	// static single index is I(a,b) or I(c,d); both phases weigh the
	// same, so accept either.
	name := first.Format(rec.StructureNames)
	if name != "{I(a,b)}" && name != "{I(c,d)}" {
		t.Errorf("static design = %s", name)
	}
}

// TestLastKnownGoodNeedsFallback pins Options.LastKnownGood's gate: when
// a what-if budget fails every rung, the last-known-good design answers
// only with Fallback on; without it the solve fails and the design is
// never adopted.
func TestLastKnownGoodNeedsFallback(t *testing.T) {
	_, adv := testAdvisor(t)
	w := testWorkload(t)
	good, err := adv.Recommend(w, paperOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, fallback := range []bool{false, true} {
		opts := paperOpts(2)
		opts.MaxWhatIfCalls, opts.Fallback, opts.LastKnownGood = 1, fallback, good.Solution
		rec, err := adv.Recommend(w, opts)
		adopted := err == nil && rec.Rung == core.RungLastKnownGood
		if adopted != fallback {
			t.Fatalf("Fallback %v: adopted the last-known-good design = %v (err %v)", fallback, adopted, err)
		}
	}
}

func TestRecommendationHelpers(t *testing.T) {
	_, adv := testAdvisor(t)
	w := testWorkload(t)
	rec, err := adv.Recommend(w, paperOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	per := rec.PerStatement()
	if len(per) != w.Len() {
		t.Fatalf("PerStatement len = %d", len(per))
	}
	for i := range per {
		if rec.DesignAt(i) != per[i] {
			t.Fatalf("DesignAt(%d) disagrees with PerStatement", i)
		}
	}
	steps := rec.Steps()
	if len(steps) == 0 {
		t.Fatal("no steps for a 2-change design")
	}
	// The first step installs the first design at statement 0; the last
	// tears down to the final (empty) configuration at the end.
	if steps[0].StatementIndex != 0 || steps[0].From != 0 {
		t.Errorf("first step = %+v", steps[0])
	}
	last := steps[len(steps)-1]
	if last.To != 0 || last.StatementIndex != w.Len() {
		t.Errorf("last step = %+v", last)
	}
	// DDL ordering: drops precede creates within a step.
	for _, s := range steps {
		sawCreate := false
		for _, ddl := range s.DDL {
			if strings.HasPrefix(ddl, "CREATE") {
				sawCreate = true
			}
			if strings.HasPrefix(ddl, "DROP") && sawCreate {
				t.Errorf("step %d: DROP after CREATE", s.StatementIndex)
			}
		}
	}
	var sb strings.Builder
	rec.Render(&sb)
	if !strings.Contains(sb.String(), "design steps") {
		t.Errorf("render:\n%s", sb.String())
	}
}

func TestSegmentedRecommendationMatchesBlockDesigns(t *testing.T) {
	_, adv := testAdvisor(t)
	w := testWorkload(t)
	fine, err := adv.Recommend(w, paperOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	opts := paperOpts(2)
	opts.SegmentSize = testBlock
	coarse, err := adv.Recommend(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if coarse.Problem.Stages != 30 {
		t.Errorf("segmented stages = %d", coarse.Problem.Stages)
	}
	// Mid-block designs agree between granularities.
	for i, b := range w.BlockLabels() {
		mid := b.Start + b.Count/2
		if f, c := fine.DesignAt(mid), coarse.DesignAt(mid); f != c {
			t.Errorf("block %d: fine %v vs coarse %v", i, f, c)
		}
	}
}

func TestReplayMatchesEstimate(t *testing.T) {
	db, adv := testAdvisor(t)
	w := testWorkload(t)
	rec, err := adv.Recommend(w, paperOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	report, err := Replay(db, w, rec, rec.PerStatement())
	if err != nil {
		t.Fatal(err)
	}
	if report.Statements != w.Len() {
		t.Errorf("executed %d statements", report.Statements)
	}
	measured := float64(report.TotalPages())
	est := rec.Solution.Cost
	if measured < est*0.85 || measured > est*1.15 {
		t.Errorf("measured %.0f pages vs estimated %.0f (should agree within 15%%)", measured, est)
	}
	// The final configuration is empty: no indexes remain.
	names, _ := db.IndexNames("t")
	if len(names) != 0 {
		t.Errorf("indexes remain after replay: %v", names)
	}
	if err := db.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestProblemPricesCurrentTableSize: DML after New changes the table an
// advisor prices. The next problem is costed at the table's current size
// — as an advisor built now over the same statistics costs it — and a
// memo retained across the change drops the rows of the old size.
func TestProblemPricesCurrentTableSize(t *testing.T) {
	db, adv := testAdvisor(t)
	w := testWorkload(t)
	opts := paperOpts(2)
	opts.Memo = NewMemo(0)
	before, err := adv.Recommend(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < testRows/5; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d, %d, %d)", rng.Intn(100), rng.Intn(100), rng.Intn(100), rng.Intn(100)))
	}
	after, err := adv.Recommend(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := New(db, paperSpace())
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Recommend(w, paperOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	if after.Solution.Cost != want.Solution.Cost || after.Solution.Cost <= before.Solution.Cost {
		t.Errorf("after growing the table: cost %v, an advisor built now %v, before %v",
			after.Solution.Cost, want.Solution.Cost, before.Solution.Cost)
	}
	if got := opts.Memo.Stats().Invalidations; got != 1 {
		t.Errorf("the retained memo was purged %d times, want once", got)
	}
	for _, s := range w.Statements[:5] {
		got, err := adv.StatementCost(s, 1)
		if err != nil {
			t.Fatal(err)
		}
		if exp, _ := fresh.StatementCost(s, 1); got != exp {
			t.Errorf("StatementCost(%q) = %v, an advisor built now says %v", s.SQL, got, exp)
		}
	}
}

// TestWorldRefreshUnderConcurrentUse: problems re-size the cost world
// while another goroutine inserts rows and others cost statements, as
// advisord's ingest and alerter do beside its solver; run under -race.
func TestWorldRefreshUnderConcurrentUse(t *testing.T) {
	db, adv := testAdvisor(t)
	w := testWorkload(t).Slice(0, 200)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(3)
	for g := 0; g < 2; g++ {
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := adv.StatementCost(w.Statements[i%w.Len()], core.Config(i%3)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if _, err := adv.Recommend(w, paperOpts(2)); err != nil {
				t.Error(err)
			}
		}
		close(stop)
	}()
	for i := 0; i < 300; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d, %d, %d)", i, i, i, i))
	}
	wg.Wait()
}

func TestReplayErrors(t *testing.T) {
	db, adv := testAdvisor(t)
	w := testWorkload(t)
	rec, err := adv.Recommend(w, paperOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(db, w, rec, rec.PerStatement()[:5]); err == nil {
		t.Error("short design list accepted")
	}
	// An index outside the design space blocks replay.
	db.MustExec("CREATE INDEX ON t (b, c)")
	if _, err := Replay(db, w, rec, rec.PerStatement()); err == nil {
		t.Error("foreign index tolerated")
	}
	db.MustExec("DROP INDEX I(b,c) ON t")
	if _, err := Replay(db, w, rec, rec.PerStatement()); err != nil {
		t.Errorf("replay after cleanup failed: %v", err)
	}
}

func TestReplayStartsFromExistingIndexes(t *testing.T) {
	db, adv := testAdvisor(t)
	w := testWorkload(t)
	rec, err := adv.Recommend(w, paperOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	// Pre-create an index from the design space: replay must reconcile
	// (drop it) rather than fail.
	db.MustExec("CREATE INDEX ON t (c)")
	if _, err := Replay(db, w, rec, rec.PerStatement()); err != nil {
		t.Fatalf("replay with pre-existing in-space index: %v", err)
	}
	names, _ := db.IndexNames("t")
	if len(names) != 0 {
		t.Errorf("indexes remain: %v", names)
	}
}

func TestUnconstrainedBeatsConstrainedOnTrainingTrace(t *testing.T) {
	_, adv := testAdvisor(t)
	w := testWorkload(t)
	unc, err := adv.Recommend(w, paperOpts(core.Unconstrained))
	if err != nil {
		t.Fatal(err)
	}
	con, err := adv.Recommend(w, paperOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	if unc.Solution.Cost >= con.Solution.Cost {
		t.Errorf("unconstrained %.0f not below constrained %.0f", unc.Solution.Cost, con.Solution.Cost)
	}
	if con.Solution.Changes > 2 {
		t.Errorf("constrained changes = %d", con.Solution.Changes)
	}
}

func TestStrategiesAgreeOnFeasibility(t *testing.T) {
	_, adv := testAdvisor(t)
	w := testWorkload(t)
	optimal, err := adv.Recommend(w, paperOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []core.Strategy{core.StrategyGreedySeq, core.StrategyMerge} {
		opts := paperOpts(2)
		opts.Strategy = s
		rec, err := adv.Recommend(w, opts)
		if err != nil {
			t.Fatalf("strategy %s: %v", s, err)
		}
		if rec.Solution.Changes > 2 {
			t.Errorf("strategy %s used %d changes", s, rec.Solution.Changes)
		}
		if rec.Solution.Cost < optimal.Solution.Cost-1e-6 {
			t.Errorf("strategy %s beats the optimum", s)
		}
	}
}

func TestSpaceBoundEnumeration(t *testing.T) {
	db := buildDB(t)
	// No explicit Configs: enumerate subsets of four single-column
	// indexes under a bound that fits at most one of them.
	adv, err := New(db, DesignSpace{
		Table: "t",
		Structures: []catalog.IndexDef{
			{Table: "t", Columns: []string{"a"}},
			{Table: "t", Columns: []string{"b"}},
			{Table: "t", Columns: []string{"c"}},
			{Table: "t", Columns: []string{"d"}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	w := testWorkload(t)
	opts := paperOpts(4)
	opts.SpaceBound = 110 // ~one single-column index at 30k rows
	rec, err := adv.Recommend(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rec.Solution.Designs {
		if c.Count() > 1 {
			t.Fatalf("design %v exceeds the space bound", c)
		}
	}
}

// TestStringColumnWorkload exercises the full advisor pipeline over a
// table with a string column: statistics, hypothetical string-key
// indexes, seeks, and replay must all handle the string codec.
func TestStringColumnWorkload(t *testing.T) {
	db := engine.New()
	db.MustExec("CREATE TABLE ev (kind STRING, node INT, ts INT)")
	kinds := []string{"click", "view", "purchase", "refund"}
	var sb strings.Builder
	rng := rand.New(rand.NewSource(61))
	for i := 0; i < 20000; i += 500 {
		sb.Reset()
		sb.WriteString("INSERT INTO ev VALUES ")
		for j := 0; j < 500; j++ {
			if j > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "('%s', %d, %d)", kinds[rng.Intn(len(kinds))], rng.Intn(4000), i+j)
		}
		db.MustExec(sb.String())
	}
	if err := db.Analyze("ev"); err != nil {
		t.Fatal(err)
	}

	// Phase 1 filters by kind, phase 2 by node.
	w := &workload.Workload{Name: "events"}
	for i := 0; i < 300; i++ {
		w.Append("kind", workload.MustStatement(
			fmt.Sprintf("SELECT ts FROM ev WHERE kind = '%s'", kinds[rng.Intn(len(kinds))])))
	}
	for i := 0; i < 300; i++ {
		w.Append("node", workload.MustStatement(
			fmt.Sprintf("SELECT ts FROM ev WHERE node = %d", rng.Intn(4000))))
	}

	structures := candidates.FromWorkload(w, "ev", candidates.Options{MaxWidth: 2, Limit: 8})
	if len(structures) == 0 {
		t.Fatal("no candidates for the string workload")
	}
	adv, err := New(db, DesignSpace{Table: "ev", Structures: structures})
	if err != nil {
		t.Fatal(err)
	}
	f := core.Config(0)
	rec, err := adv.Recommend(w, Options{K: 1, Final: &f, SpaceBound: 200})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Solution.Changes > 1 {
		t.Errorf("changes = %d", rec.Solution.Changes)
	}
	report, err := Replay(db, w, rec, rec.PerStatement())
	if err != nil {
		t.Fatal(err)
	}
	est := rec.Solution.Cost
	if m := float64(report.TotalPages()); m < est*0.7 || m > est*1.3 {
		t.Errorf("string workload: measured %.0f vs estimated %.0f", m, est)
	}
	if err := db.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRenderTimeline(t *testing.T) {
	_, adv := testAdvisor(t)
	w := testWorkload(t)
	rec, err := adv.Recommend(w, paperOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	rec.RenderTimeline(&sb, testBlock)
	out := sb.String()
	lines := strings.Count(out, "\n")
	if lines != 31 { // header + 30 blocks
		t.Errorf("timeline has %d lines:\n%s", lines, out)
	}
	if !strings.Contains(out, "{I(a,b)}") || !strings.Contains(out, "{I(c,d)}") {
		t.Errorf("timeline missing designs:\n%s", out)
	}
	// Auto block size also yields 30 rows.
	sb.Reset()
	rec.RenderTimeline(&sb, -1)
	if got := strings.Count(sb.String(), "\n"); got != 31 {
		t.Errorf("auto timeline has %d lines", got)
	}
}

// TestSharedProblemConcurrentStrategies is the advisor-level -race
// stress test: one Problem — one shared what-if model and exec cache —
// solved by several strategies from many goroutines at once. Ranking
// variants are excluded because plain ranking is exponential at small k
// on a problem this long; the core package stress test covers them on a
// small synthetic model.
func TestSharedProblemConcurrentStrategies(t *testing.T) {
	_, adv := testAdvisor(t)
	w := testWorkload(t)
	p, _, err := adv.Problem(w, paperOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	strategies := []core.Strategy{
		core.StrategyKAware, core.StrategyGreedySeq,
		core.StrategyMerge,
	}
	want := map[core.Strategy]float64{}
	for _, s := range strategies {
		sol, err := core.Solve(bg, p, s)
		if err != nil {
			t.Fatalf("strategy %s (serial): %v", s, err)
		}
		want[s] = sol.Cost
	}

	const repetitions = 3
	var wg sync.WaitGroup
	errs := make(chan error, len(strategies)*repetitions)
	for _, s := range strategies {
		for r := 0; r < repetitions; r++ {
			wg.Add(1)
			go func(s core.Strategy) {
				defer wg.Done()
				sol, err := core.Solve(bg, p, s)
				if err != nil {
					errs <- fmt.Errorf("strategy %s: %w", s, err)
					return
				}
				if sol.Cost != want[s] {
					errs <- fmt.Errorf("strategy %s: concurrent cost %v != serial %v", s, sol.Cost, want[s])
				}
			}(s)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRecommendationInstrumentation asserts Recommend reports the
// costing-layer counters the ISSUE requires: what-if call count, cache
// hit rate, and matrix-build timing.
func TestRecommendationInstrumentation(t *testing.T) {
	_, adv := testAdvisor(t)
	w := testWorkload(t)
	rec, err := adv.Recommend(w, paperOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Stats.WhatIfCalls <= 0 {
		t.Errorf("WhatIfCalls = %d, want > 0", rec.Stats.WhatIfCalls)
	}
	if rec.Stats.Lookups <= 0 {
		t.Errorf("Lookups = %d, want > 0", rec.Stats.Lookups)
	}
	if hr := rec.Stats.HitRate(); hr < 0 || hr > 1 {
		t.Errorf("HitRate = %v, want within [0, 1]", hr)
	}
	if rec.MatrixBuilds <= 0 {
		t.Errorf("MatrixBuilds = %d, want > 0", rec.MatrixBuilds)
	}
	if rec.MatrixBuildTime <= 0 {
		t.Errorf("MatrixBuildTime = %v, want > 0", rec.MatrixBuildTime)
	}
	// The recommendation re-reads the exec cells the matrix build already
	// priced when it costs the final design: either the exec memo absorbs
	// those calls or the solve cache serves the replay from its tables.
	if rec.Stats.Hits == 0 && rec.MatrixReuses == 0 {
		t.Error("neither the exec memo nor the solve cache recorded a hit on a full recommendation")
	}
	if rec.MatrixReuses <= 0 {
		t.Errorf("MatrixReuses = %d, want > 0 (cost replays should be served from cached tables)", rec.MatrixReuses)
	}
	// The rendered report carries the instrumentation line.
	var sb strings.Builder
	rec.Render(&sb)
	if !strings.Contains(sb.String(), "what-if calls") {
		t.Errorf("Render missing instrumentation line:\n%s", sb.String())
	}
}

// TestRenderAnytimeBound pins that Render reports the certificate of a
// beam-pruned answer, which it reads off Solution.Gap. No fixture here
// reaches a pruned solve (that needs a component above 20 bits and
// 4 096 configurations), so the test stamps a gap on a solved one.
func TestRenderAnytimeBound(t *testing.T) {
	_, adv := testAdvisor(t)
	rec, err := adv.Recommend(testWorkload(t).Slice(0, 30), paperOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	rec.Render(&sb)
	if strings.Contains(sb.String(), "anytime bound") {
		t.Fatalf("exact solve rendered an anytime bound:\n%s", sb.String())
	}
	pruned := *rec.Solution
	pruned.Gap = pruned.Cost / 4
	rec.Solution = &pruned
	sb.Reset()
	rec.Render(&sb)
	if !strings.Contains(sb.String(), "anytime bound: optimum within") {
		t.Errorf("Render missing the anytime bound of a gap-%.0f solution:\n%s", pruned.Gap, sb.String())
	}
}

// TestCancelledContextStopsAssembly pins that problem assembly compiles
// under the caller's context: with a context cancelled before the call,
// RecommendContext, RecommendMultiContext and the explain audit's
// re-assembly return context.Canceled without compiling a statement —
// no row of the retained store holds plan tables afterwards, and the
// next assembly under a live context builds as many as one on a fresh
// store.
func TestCancelledContextStopsAssembly(t *testing.T) {
	_, adv := testAdvisor(t)
	w := testWorkload(t)
	ctx, cancel := context.WithCancel(bg)
	cancel()
	opts := paperOpts(2)
	opts.SegmentSize = testBlock
	opts.Memo = NewMemo(0)
	check := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s under a cancelled context: %v, want context.Canceled", what, err)
		}
		for _, r := range opts.Memo.rows {
			if r.tables != nil {
				t.Fatalf("%s compiled statements under a cancelled context", what)
			}
		}
	}
	_, err := adv.RecommendContext(ctx, w, opts)
	check("RecommendContext", err)
	_, err = adv.RecommendMultiContext(ctx, []*workload.Workload{w, w}, opts)
	check("RecommendMultiContext", err)

	rec, err := adv.Recommend(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	fresh := opts
	fresh.Memo = NewMemo(0)
	want, err := adv.Recommend(w, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Stats.PlanTableBuilds != want.Stats.PlanTableBuilds {
		t.Fatalf("live assembly after the cancelled ones built %d plan tables, one on a fresh store %d",
			rec.Stats.PlanTableBuilds, want.Stats.PlanTableBuilds)
	}
	if _, err := adv.perturb(ctx, rec)(0, 9); !errors.Is(err, context.Canceled) {
		t.Fatalf("audit re-assembly under a cancelled context: %v, want context.Canceled", err)
	}
}
