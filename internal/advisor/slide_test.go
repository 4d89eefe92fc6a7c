package advisor

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dyndesign/internal/candidates"
	"dyndesign/internal/catalog"
	"dyndesign/internal/core"
	"dyndesign/internal/obs"
	"dyndesign/internal/workload"
)

// latticeAdvisor is the test table under eight structures with every
// subset allowed: 256 configurations, wide enough (splitMinBits) for the
// seed pass to split between two workers.
func latticeAdvisor(t *testing.T) (*Advisor, func()) {
	t.Helper()
	db := buildDB(t)
	structures := append(candidates.PaperStructures("t"),
		catalog.IndexDef{Table: "t", Columns: []string{"b", "a"}},
		catalog.IndexDef{Table: "t", Columns: []string{"d", "c"}})
	adv, err := New(db, DesignSpace{Table: "t", Structures: structures})
	if err != nil {
		t.Fatal(err)
	}
	invalidate := func() {
		var sb strings.Builder
		sb.WriteString("INSERT INTO t VALUES (0, 0, 0, 0)")
		for i := 1; i < testRows/10; i++ {
			fmt.Fprintf(&sb, ", (%d, %d, %d, %d)", i, i, i, i)
		}
		db.MustExec(sb.String())
		if err := db.Analyze("t"); err != nil {
			t.Fatal(err)
		}
	}
	return adv, invalidate
}

// fullLatticeAdvisor is the test table under ten structures with every
// subset allowed: the 1 024-configuration lattice of the benchmark's
// solve_lattice workload.
func fullLatticeAdvisor(t testing.TB) *Advisor {
	t.Helper()
	structures := append(candidates.PaperStructures("t"),
		catalog.IndexDef{Table: "t", Columns: []string{"b", "a"}},
		catalog.IndexDef{Table: "t", Columns: []string{"d", "c"}},
		catalog.IndexDef{Table: "t", Columns: []string{"a", "c"}},
		catalog.IndexDef{Table: "t", Columns: []string{"b", "d"}})
	adv, err := New(buildDB(t), DesignSpace{Table: "t", Structures: structures})
	if err != nil {
		t.Fatal(err)
	}
	return adv
}

// loadStream is W1 then W2 at 250-statement blocks with a 300-row
// INSERT burst after every 500 reads, the shape of the benchmark's
// solve_lattice trace: the bursts make index maintenance pay, so most
// slides' seed passes forget the dropped head within the window.
func loadStream(t testing.TB) *workload.Workload {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	stream := &workload.Workload{Name: "load"}
	reads := 0
	for i, name := range []string{"W1", "W2"} {
		w, err := workload.PaperWorkload(name, testRows, 250, int64(70+i))
		if err != nil {
			t.Fatal(err)
		}
		for j, s := range w.Statements {
			stream.Append(w.Labels[j], s)
			if reads++; reads%500 == 0 {
				ins, err := workload.GenerateInserts("t", 4, workload.DomainForRows(testRows), rng, 300)
				if err != nil {
					t.Fatal(err)
				}
				for _, d := range ins {
					stream.Append("LOAD", d)
				}
			}
		}
	}
	return stream
}

// TestSlidesMatchColdSolves is the retained seed pass's differential
// test: 505 consecutive slides of a 40-segment window over one retained
// Memo and Cache, each compared with a solve of the same window on a
// fresh Memo and Cache — designs, Cost bits, changes and gap — at
// Parallelism 1 and 2. On the way the world is invalidated (DML and
// ANALYZE), the initial design changes and the window slides by two
// segments at once. Most slides must reuse retained stages, and the
// invalidation must take a full pass.
func TestSlidesMatchColdSolves(t *testing.T) {
	adv, invalidate := latticeAdvisor(t)
	stream := loadStream(t)
	const seg, stages, slides = 20, 40, 505
	const invalidateAt, initialAt, doubleAt = 150, 300, 420
	for _, par := range []int{1, 2} {
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			f := core.Config(0)
			opts := Options{K: 2, SegmentSize: seg, Final: &f, Parallelism: par,
				Memo: NewMemo(0), Cache: core.NewSolveCache()}
			lo, reusing := 0, 0
			for i := 0; i <= slides; i++ {
				switch i {
				case invalidateAt:
					invalidate()
				case initialAt:
					opts.Initial = core.Config(0b101)
				case doubleAt:
					lo += seg
				}
				w := stream.Slice(lo, lo+seg*stages)
				rec, err := adv.Recommend(w, opts)
				if err != nil {
					t.Fatalf("slide %d: %v", i, err)
				}
				cold := opts
				cold.Memo, cold.Cache = nil, nil
				want, err := adv.Recommend(w, cold)
				if err != nil {
					t.Fatalf("slide %d, cold: %v", i, err)
				}
				got, exp := rec.Solution, want.Solution
				if !slices.Equal(got.Designs, exp.Designs) || math.Float64bits(got.Cost) != math.Float64bits(exp.Cost) ||
					got.Changes != exp.Changes || got.Gap != exp.Gap {
					t.Fatalf("slide %d: retained solve (cost %v, %d changes, gap %v) differs from the cold solve (cost %v, %d changes, gap %v)",
						i, got.Cost, got.Changes, got.Gap, exp.Cost, exp.Changes, exp.Gap)
				}
				if rec.SeedStagesReused > 0 {
					reusing++
				}
				if i == 0 && (rec.SeedStagesReused != 0 || rec.SeedFullPasses != 0) {
					t.Fatalf("first solve: %d stages reused, %d full passes, want neither", rec.SeedStagesReused, rec.SeedFullPasses)
				}
				if i == invalidateAt && (rec.SeedFullPasses != 1 || rec.SeedStagesReused != 0) {
					t.Fatalf("slide after the world changed: %d full passes, %d stages reused, want one full pass",
						rec.SeedFullPasses, rec.SeedStagesReused)
				}
				lo += seg
			}
			if reusing < slides*3/4 {
				t.Fatalf("%d of %d slides reused retained stages, want at least three in four", reusing, slides)
			}
		})
	}
}

// attributionOnly asks Explain for the per-transition attribution alone,
// what a service attaches to every window.
var attributionOnly = ExplainOptions{KSweepDelta: -1, AuditTrials: -1}

// TestSlidePaysForWhatEntered pins what a cold solve and a converged
// one-segment slide ask of the row store, at the benchmark's shape — 360 stages over the
// 1 024-configuration lattice, a retained Memo and Cache: the table
// build sends exactly one stage (the one that entered) to a worker; the
// recommendation's CostStats count every stored row as looked up and hit,
// batched (a hit rate of 359/360), and what-if calls for the entered
// segment alone; and the attribution, read through the cost tables,
// sums the model's own cells bit for bit and equals field for field,
// floats bit for bit, the one computed through the model on the same
// problem without a cache.
func TestSlidePaysForWhatEntered(t *testing.T) {
	adv := fullLatticeAdvisor(t)
	stream := loadStream(t)
	const seg, stages = 10, 360
	agg := obs.NewAggregator()
	opts := Options{K: 4, SegmentSize: seg, Memo: NewMemo(0), Cache: core.NewSolveCache(), Tracer: obs.NewTracer(agg)}
	cells := int64(stages << 10)
	for _, lo := range []int{0, seg} {
		rec, err := adv.Recommend(stream.Slice(lo, lo+seg*stages), opts)
		if err != nil {
			t.Fatal(err)
		}
		if lo != 0 {
			continue
		}
		// The cold solve: every row is computed, none looked up stored.
		want := CostStats{
			WhatIfCalls:     cells * seg,
			ProbeStats:      ProbeStats{Lookups: cells},
			PlanTableBuilds: seg * stages,
			BatchedLookups:  cells,
		}
		got := rec.Stats
		got.PlanTableBytes = 0
		if got != want {
			t.Fatalf("cold CostStats %+v, want %+v", got, want)
		}
	}
	agg.Reset()
	rec, err := adv.Recommend(stream.Slice(2*seg, 2*seg+seg*stages), opts)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Problem.Stages != stages || len(rec.Problem.Configs) != 1<<10 {
		t.Fatalf("%d stages over %d configurations, want %d over 1024", rec.Problem.Stages, len(rec.Problem.Configs), stages)
	}
	filled := int64(0)
	for _, st := range agg.Snapshot() {
		if st.Name == core.SpanMatrixExecStage {
			filled = st.Count
		}
	}
	if filled != 1 {
		t.Fatalf("the table build filled %d stages through the model, want the one that entered", filled)
	}
	want := CostStats{
		WhatIfCalls:     int64(seg << 10),
		ProbeStats:      ProbeStats{Lookups: cells, Hits: cells - 1<<10},
		PlanTableBuilds: seg,
		BatchedLookups:  cells,
	}
	got := rec.Stats
	got.PlanTableBytes = 0
	if got != want {
		t.Fatalf("slide CostStats %+v, want %+v", got, want)
	}

	e, err := adv.Explain(bg, rec, attributionOnly)
	if err != nil {
		t.Fatal(err)
	}
	uncached := *rec
	p := *rec.Problem
	p.Cache = nil
	uncached.Problem = &p
	ref, err := adv.Explain(bg, &uncached, attributionOnly)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Transitions) < 2 {
		t.Fatalf("%d transitions: the slide makes too few design changes to compare", len(e.Transitions))
	}
	if !reflect.DeepEqual(e.Transitions, ref.Transitions) {
		t.Fatalf("attribution through the tables\n%+v\ndiffers from the model's\n%+v", e.Transitions, ref.Transitions)
	}
	m := rec.Problem.Model
	for i, tr := range e.Transitions {
		from, to := core.Config(tr.FromBits), core.Config(tr.ToBits)
		run, saved := 0.0, 0.0
		for st := tr.Stage; st < tr.Stage+tr.RunLength; st++ {
			u := m.Exec(st, to)
			run += u
			saved += m.Exec(st, from) - u
		}
		if math.Float64bits(run) != math.Float64bits(tr.RunExecCost) || math.Float64bits(saved) != math.Float64bits(tr.ExecSaved) {
			t.Fatalf("transition %d: run cost %v, saved %v; the model's cells sum to %v, %v", i, tr.RunExecCost, tr.ExecSaved, run, saved)
		}
		for _, im := range tr.TopStages {
			if d := m.Exec(im.Stage, from) - m.Exec(im.Stage, to); math.Float64bits(d) != math.Float64bits(im.Delta) {
				t.Fatalf("transition %d, stage %d: delta %v, the model's %v", i, im.Stage, im.Delta, d)
			}
		}
		r := ref.Transitions[i]
		for _, f := range [][2]float64{{tr.TransCost, r.TransCost}, {tr.RunExecCost, r.RunExecCost}, {tr.ExecSaved, r.ExecSaved}, {tr.RemovalPenalty, r.RemovalPenalty}} {
			if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
				t.Fatalf("transition %d: %v through the tables, %v through the model", i, f[0], f[1])
			}
		}
		for j, im := range tr.TopStages {
			if math.Float64bits(im.Delta) != math.Float64bits(r.TopStages[j].Delta) {
				t.Fatalf("transition %d, stage impact %d: delta %v through the tables, %v through the model", i, j, im.Delta, r.TopStages[j].Delta)
			}
		}
	}
}

// BenchmarkSlide times one slide at the benchmark's lattice shape: a
// one-segment slide of a 360-stage window over the 1 024
// configurations on a retained Memo and Cache — problem assembly, the
// cost-table build, the seed pass (unconstrained, so the change-bounded
// layers never run) and the attribution half of Explain. Besides the
// whole slide per op it reports the three layers the seed pass does not
// own, from their spans: assembly (advisor.problem), the table build
// (matrix.build) and the attribution (advisor.explain), in µs per op. A
// slide past the end of the stream starts over at its head, which costs
// one full pass, one slide in 120.
func BenchmarkSlide(b *testing.B) {
	adv := fullLatticeAdvisor(b)
	stream := loadStream(b)
	const seg, stages = 50, 360
	agg := obs.NewAggregator()
	opts := Options{K: core.Unconstrained, SegmentSize: seg, Memo: NewMemo(0), Cache: core.NewSolveCache(), Tracer: obs.NewTracer(agg)}
	lo := 0
	slide := func() {
		if lo += seg; lo+seg*stages > stream.Len() {
			lo = 0
		}
		rec, err := adv.RecommendContext(bg, stream.Slice(lo, lo+seg*stages), opts)
		if err == nil {
			_, err = adv.Explain(bg, rec, attributionOnly)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	slide()
	slide()
	agg.Reset()
	b.ResetTimer()
	for range b.N {
		slide()
	}
	b.StopTimer()
	for _, st := range agg.Snapshot() {
		switch st.Name {
		case "advisor.problem", core.SpanMatrixBuild, "advisor.explain":
			b.ReportMetric(float64(st.Total)/1e3/float64(b.N), st.Name+"-us/op")
		}
	}
}
