package advisor

import (
	"math"
	"slices"
	"testing"

	"dyndesign/internal/catalog"
	"dyndesign/internal/core"
	"dyndesign/internal/workload"
)

// TestBatchExecMatchesExec pins the tentpole invariant at the model
// layer: BatchExec over a frontier is bit-for-bit identical to per-call
// Exec, on cold and filled store rows alike.
func TestBatchExecMatchesExec(t *testing.T) {
	_, adv := testAdvisor(t)
	w := testWorkload(t)
	p, _, err := adv.Problem(w, paperOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	bm, ok := p.Model.(core.BatchCostModel)
	if !ok {
		t.Fatal("advisor problem model does not implement core.BatchCostModel")
	}
	// Scalar twin with its own store, so neither side sees the other's
	// rows.
	p2, _, err := adv.Problem(w, paperOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	var out []float64
	for stage := 0; stage < p.Stages; stage++ {
		out = bm.BatchExec(stage, p.Configs, out[:0])
		if len(out) != len(p.Configs) {
			t.Fatalf("stage %d: BatchExec returned %d values for %d configs", stage, len(out), len(p.Configs))
		}
		for j, c := range p.Configs {
			want := p2.Model.Exec(stage, c)
			if math.Float64bits(out[j]) != math.Float64bits(want) {
				t.Fatalf("stage %d config %v: batch %v != scalar %v", stage, c, out[j], want)
			}
		}
		// Warm pass: every value now comes from the stored row; must not
		// drift.
		warm := bm.BatchExec(stage, p.Configs, nil)
		for j := range warm {
			if math.Float64bits(warm[j]) != math.Float64bits(out[j]) {
				t.Fatalf("stage %d config %v: warm batch %v != cold %v", stage, p.Configs[j], warm[j], out[j])
			}
		}
	}
}

// brokenModel builds a whatIfModel whose only segment contains
// statements that parse but cannot be costed (unknown column),
// bypassing the validation Problem performs — the shape of a world that
// changed mid-solve.
func brokenModel(t *testing.T, adv *Advisor) (*whatIfModel, int) {
	t.Helper()
	stmts := []workload.Statement{
		workload.MustStatement("SELECT nope FROM t"),
		workload.MustStatement("SELECT a FROM t WHERE a = 1"),
	}
	segs := []workload.Segment{{Statements: stmts}}
	m := &whatIfModel{table: adv.world.Load().table, phys: adv.world.Load().phys, segs: segs, memo: NewMemo(0)}
	m.attach(adv.space.Configs)
	return m, len(stmts)
}

// TestExecCountsAttemptedStatementsOnError pins the accounting fix:
// what-if calls count the statements a costing *attempted*, even when
// the attempt fails, and a failed compile stores nothing — neither plan
// tables nor a cost row — so a healthy retry recomputes.
func TestExecCountsAttemptedStatementsOnError(t *testing.T) {
	_, adv := testAdvisor(t)
	m, nstmt := brokenModel(t, adv)
	if v := m.Exec(0, 0); !math.IsInf(v, 1) {
		t.Fatalf("Exec on a broken world = %v, want +Inf", v)
	}
	if got := m.whatIfCalls.Load(); got != int64(nstmt) {
		t.Fatalf("whatIfCalls after failed Exec = %d, want %d (attempted statements must count)", got, nstmt)
	}
	if err := m.TakeErr(); err == nil {
		t.Fatal("TakeErr returned nil after a costing failure")
	}
	// The failure is not cached: a retry attempts (and counts) again.
	if v := m.Exec(0, 0); !math.IsInf(v, 1) {
		t.Fatalf("second Exec = %v, want +Inf", v)
	}
	if got := m.whatIfCalls.Load(); got != 2*int64(nstmt) {
		t.Fatalf("whatIfCalls after retry = %d, want %d", got, 2*nstmt)
	}

	// Same contract on the batched path.
	m2, _ := brokenModel(t, adv)
	configs := []core.Config{0, 1, 2}
	out := m2.BatchExec(0, configs, nil)
	for j, v := range out {
		if !math.IsInf(v, 1) {
			t.Fatalf("batch cell %d on a broken world = %v, want +Inf", j, v)
		}
	}
	if got := m2.whatIfCalls.Load(); got != int64(len(configs)*nstmt) {
		t.Fatalf("whatIfCalls after failed batch = %d, want %d", got, len(configs)*nstmt)
	}
	if err := m2.TakeErr(); err == nil {
		t.Fatal("TakeErr returned nil after a batched costing failure")
	}
	if got := m2.costStats().BatchedLookups; got != int64(len(configs)) {
		t.Fatalf("BatchedLookups = %d, want %d", got, len(configs))
	}

	// Over the candidate list itself — the call that would store a row —
	// the failure must leave the row empty, and once the world heals the
	// same row is compiled, costed, and only then stored.
	m3, _ := brokenModel(t, adv)
	for j, v := range m3.BatchExec(0, adv.space.Configs, nil) {
		if !math.IsInf(v, 1) {
			t.Fatalf("candidate cell %d on a broken world = %v, want +Inf", j, v)
		}
	}
	if r := m3.rows[0]; r.tables != nil || r.costs != nil {
		t.Fatal("a failed compile was cached in the store row")
	}
	if err := m3.TakeErr(); err == nil {
		t.Fatal("TakeErr returned nil after a failed row fill")
	}
	healthy := []workload.Statement{workload.MustStatement("SELECT a FROM t WHERE a = 1")}
	m3.segs[0].Statements = healthy
	before := m3.whatIfCalls.Load()
	out = m3.BatchExec(0, adv.space.Configs, nil)
	for j, c := range adv.space.Configs {
		want, err := adv.StatementCost(healthy[0], c)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(out[j]) != math.Float64bits(want) {
			t.Fatalf("healthy retry cell %d = %v, want recomputed %v", j, out[j], want)
		}
	}
	if got, want := m3.whatIfCalls.Load()-before, int64(len(adv.space.Configs)); got != want {
		t.Fatalf("healthy retry performed %d what-if costings, want %d", got, want)
	}
	if err := m3.TakeErr(); err != nil {
		t.Fatalf("healthy retry recorded %v", err)
	}
	if m3.rows[0].costs == nil {
		t.Fatal("healthy retry did not store the row")
	}
}

// TestExecWarmMemoZeroAllocs pins the arena property of the hot path: a
// scalar Exec performs no heap allocation at all, whether it sums the
// stage's compiled plan tables or reads the stored row.
func TestExecWarmMemoZeroAllocs(t *testing.T) {
	_, adv := testAdvisor(t)
	w := testWorkload(t)
	p, _, err := adv.Problem(w, paperOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	m := p.Model.(*whatIfModel)
	cfg := p.Configs[len(p.Configs)-1]
	m.Exec(0, cfg)
	if allocs := testing.AllocsPerRun(100, func() { m.Exec(0, cfg) }); allocs != 0 {
		t.Fatalf("plan-table Exec allocates %.1f objects per call, want 0", allocs)
	}
	m.BatchExec(0, p.Configs, nil)
	if allocs := testing.AllocsPerRun(100, func() { m.Exec(0, cfg) }); allocs != 0 {
		t.Fatalf("row-served Exec allocates %.1f objects per call, want 0", allocs)
	}
}

// TestStatementCostsEdges pins the edges of pricing a configuration
// list from one compile: a bit outside the design space anywhere in the
// list is an error that leaves out untouched — PlanTable.Cost would drop
// it silently — a 64-structure space takes bit 63, and out must be as
// long as the list.
func TestStatementCostsEdges(t *testing.T) {
	db, adv := testAdvisor(t)
	s := workload.MustStatement("UPDATE t SET b = 1 WHERE a = 5")
	n := len(adv.Space().Structures)
	out := []float64{-1, -1, -1}
	for _, configs := range [][]core.Config{
		{0, core.ConfigOf(0), core.ConfigOf(n)},
		{core.ConfigOf(n, 0), 0, 0},
		{0, 0, core.ConfigOf(63)},
	} {
		if err := adv.StatementCosts(s, configs, out); err == nil {
			t.Errorf("configurations %v outside a %d-structure space accepted", configs, n)
		}
		if out[0] != -1 || out[1] != -1 || out[2] != -1 {
			t.Fatalf("a rejected list wrote %v", out)
		}
	}
	if err := adv.StatementCosts(s, []core.Config{0, 1}, out); err == nil {
		t.Error("3 costs for 2 configurations accepted")
	}

	// Every ordered choice of one to four of t's columns: 4 + 12 + 24 + 24
	// structures.
	var structures []catalog.IndexDef
	var perms func(prefix []string, rest []string)
	perms = func(prefix, rest []string) {
		if len(prefix) > 0 {
			structures = append(structures, catalog.IndexDef{Table: "t", Columns: slices.Clone(prefix)})
		}
		for i, c := range rest {
			perms(append(prefix, c), append(slices.Clone(rest[:i]), rest[i+1:]...))
		}
	}
	perms(nil, []string{"a", "b", "c", "d"})
	wide, err := New(db, DesignSpace{Table: "t", Structures: structures, Configs: SingleIndexConfigs(len(structures))})
	if err != nil {
		t.Fatal(err)
	}
	top := core.ConfigOf(63)
	configs := []core.Config{0, top, top | core.ConfigOf(0)}
	costs := make([]float64, len(configs))
	if err := wide.StatementCosts(s, configs, costs); err != nil {
		t.Fatalf("%d-structure space rejected bit 63: %v", len(structures), err)
	}
	for j, c := range configs {
		if one, err := wide.StatementCost(s, c); err != nil || math.Float64bits(one) != math.Float64bits(costs[j]) {
			t.Errorf("StatementCost(%v) = %v, %v; StatementCosts gave %v", c, one, err, costs[j])
		}
	}
	if costs[1] <= costs[0] {
		t.Errorf("index %s did not add maintenance: %v under it, %v without", structures[63].Name(), costs[1], costs[0])
	}
}

// TestParallelSolveMatchesSerial requires the batched frontier costing
// to be deterministic under parallel matrix builds: a Parallelism=4
// solve must produce bit-identical designs and cost to a serial one.
func TestParallelSolveMatchesSerial(t *testing.T) {
	_, adv := testAdvisor(t)
	w := testWorkload(t)
	serial := paperOpts(2)
	serial.Parallelism = 1
	par := paperOpts(2)
	par.Parallelism = 4
	r1, err := adv.Recommend(w, serial)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := adv.Recommend(w, par)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(r1.Solution.Cost) != math.Float64bits(r2.Solution.Cost) {
		t.Fatalf("parallel cost %v != serial cost %v", r2.Solution.Cost, r1.Solution.Cost)
	}
	if len(r1.Solution.Designs) != len(r2.Solution.Designs) {
		t.Fatalf("design length mismatch: %d vs %d", len(r2.Solution.Designs), len(r1.Solution.Designs))
	}
	for i := range r1.Solution.Designs {
		if r1.Solution.Designs[i] != r2.Solution.Designs[i] {
			t.Fatalf("stage %d: parallel design %v != serial %v", i, r2.Solution.Designs[i], r1.Solution.Designs[i])
		}
	}
	if r2.Stats.BatchedLookups == 0 {
		t.Fatal("solve did not route any frontier through BatchExec")
	}
	if r2.Stats.PlanTableBuilds == 0 {
		t.Fatal("solve compiled no plan tables")
	}
}

// TestTwinSegmentsParallelMatchesSerial covers the one place two matrix
// workers meet on a store row: a window holding content-identical
// segments. Under Parallelism 4 (and -race) the twins must cost their
// shared row once — the second worker waits on the row lock and copies
// — and every stage's row must be bit-identical to a serial build's.
func TestTwinSegmentsParallelMatchesSerial(t *testing.T) {
	_, adv := testAdvisor(t)
	const seg, distinct = 5, 6
	base := distinctStream(seg * distinct)
	w := &workload.Workload{Name: "twins"}
	for rep := 0; rep < 4; rep++ {
		w.Append("", base.Statements...)
	}
	build := func(parallelism int) (*core.Problem, *whatIfModel) {
		p, _, err := adv.Problem(w, Options{K: 2, SegmentSize: seg, Parallelism: parallelism})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.BuildCostTables(bg); err != nil {
			t.Fatal(err)
		}
		return p, p.Model.(*whatIfModel)
	}
	ps, serial := build(1)
	pp, parallel := build(4)
	want := int64(len(ps.Configs) * seg * distinct)
	if got := parallel.costStats().WhatIfCalls; got != want || serial.costStats().WhatIfCalls != want {
		t.Fatalf("what-if costings: parallel %d, serial %d, want %d (twins costed once)",
			got, serial.costStats().WhatIfCalls, want)
	}
	for stage := 0; stage < ps.Stages; stage++ {
		a := serial.BatchExec(stage, ps.Configs, nil)
		b := parallel.BatchExec(stage, pp.Configs, nil)
		for j := range a {
			if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
				t.Fatalf("stage %d config %v: parallel %v != serial %v", stage, ps.Configs[j], b[j], a[j])
			}
		}
	}
}
