package advisor

import (
	"math"
	"strings"
	"testing"

	"dyndesign/internal/core"
	"dyndesign/internal/workload"
)

// TestSpaceBoundedExplicitConfigsFillRows is the regression for the
// store never filling when explicit candidates are filtered by a space
// bound: rows are pinned to the usable list, so the first solve fills
// them (each cell the scalar sum), and a second solve of the unchanged
// window is served entirely from the store.
func TestSpaceBoundedExplicitConfigsFillRows(t *testing.T) {
	_, adv := testAdvisor(t)
	w := distinctStream(40)
	sizer := &whatIfModel{phys: adv.world.Load().phys}
	bound := 0.0
	for _, c := range adv.space.Configs {
		bound = max(bound, sizer.Size(c))
	}
	bound-- // excludes at least the largest candidate, keeps the empty one
	opts := Options{K: 2, SegmentSize: 4, SpaceBound: bound, Memo: NewMemo(0)}

	p, segs, err := adv.Problem(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	m := p.Model.(*whatIfModel)
	usable := m.layout.configs
	if len(usable) == 0 || len(usable) >= len(adv.space.Configs) {
		t.Fatalf("space bound %v keeps %d of %d candidates; the test needs a strict filter", bound, len(usable), len(adv.space.Configs))
	}
	if err := p.BuildCostTables(bg); err != nil {
		t.Fatal(err)
	}
	if got, want := m.costStats().WhatIfCalls, int64(len(usable)*w.Len()); got != want {
		t.Fatalf("first build performed %d what-if costings, want %d", got, want)
	}
	for i, seg := range segs {
		row := m.BatchExec(i, usable, nil)
		for j, c := range usable {
			want := 0.0
			for _, s := range seg.Statements {
				v, err := adv.StatementCost(s, c)
				if err != nil {
					t.Fatal(err)
				}
				want += v
			}
			if math.Float64bits(row[j]) != math.Float64bits(want) {
				t.Fatalf("stage %d config %v: stored %v != scalar %v", i, c, row[j], want)
			}
		}
	}

	first, err := adv.Recommend(w, Options{K: 2, SegmentSize: 4, SpaceBound: bound})
	if err != nil {
		t.Fatal(err)
	}
	again, err := adv.Recommend(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if again.Stats.WhatIfCalls != 0 || again.Stats.Lookups == 0 || again.Stats.HitRate() != 1 {
		t.Fatalf("unchanged-window re-solve: %+v, want hit rate 1 and 0 what-if calls", again.Stats)
	}
	if math.Float64bits(again.Solution.Cost) != math.Float64bits(first.Solution.Cost) {
		t.Fatalf("store-served cost %v != cold cost %v", again.Solution.Cost, first.Solution.Cost)
	}
}

// TestSlideMatrixBuildAllocatesOneRow pins the rows-by-reference
// contract where it pays: the matrix build of a window that slid by one
// segment over a retained store allocates the entering row (and its plan
// tables) plus a constant — not one row per stage.
func TestSlideMatrixBuildAllocatesOneRow(t *testing.T) {
	_, adv := testAdvisor(t)
	const stages, slides = 400, 6
	stream := distinctStream(stages + slides)
	opts := Options{K: 2, Parallelism: 1, Memo: NewMemo(0)}
	problems := make([]*core.Problem, slides)
	for s := range problems {
		p, _, err := adv.Problem(stream.Slice(s, s+stages), opts)
		if err != nil {
			t.Fatal(err)
		}
		problems[s] = p
	}
	// The warm-up call fills the first window; each measured call is a
	// one-segment slide.
	next := 0
	allocs := testing.AllocsPerRun(slides-1, func() {
		if err := problems[next].BuildCostTables(bg); err != nil {
			panic(err)
		}
		next++
	})
	for s, p := range problems[1:] {
		st := p.Model.(*whatIfModel).costStats()
		if st.PlanTableBuilds != 1 || st.Hits != int64((stages-1)*len(p.Configs)) {
			t.Fatalf("slide %d: %+v, want one compiled statement and %d stages served from the store", s+1, st, stages-1)
		}
	}
	if allocs > stages/2 {
		t.Fatalf("a one-segment slide's matrix build allocates %.0f objects over %d stages; rows must be shared, not copied", allocs, stages)
	}
}

// TestRowsSurviveEvictionUnderRetainedSolveCache pins row immutability
// across the two retainers: a core.SolveCache entry aliases the store's
// rows, the capacity sweep later evicts those rows from the store, and a
// re-solve of the first window's retained problem, served from its
// cache entry, must still read the original values.
func TestRowsSurviveEvictionUnderRetainedSolveCache(t *testing.T) {
	_, adv := testAdvisor(t)
	const seg, stages = 2, 10
	stream := distinctStream(seg * stages * 4)
	width := len(adv.space.Configs)
	memo := NewMemo(stages * width) // exactly one window
	opts := Options{K: 2, SegmentSize: seg, Memo: memo, Cache: core.NewSolveCache()}
	first := slideWindow(t, adv, stream, 0, seg*stages, opts)
	for lo := seg * stages; lo < seg*stages*4; lo += seg * stages {
		slideWindow(t, adv, stream, lo, seg*stages, opts)
	}
	if st := memo.Stats(); st.Evictions < int64(stages*width) {
		t.Fatalf("evicted %d cells, want the first window's %d gone", st.Evictions, stages*width)
	}
	builds := first.Problem.Metrics.Snapshot().MatrixBuilds
	again, err := core.Solve(bg, first.Problem, core.StrategyKAware)
	if err != nil {
		t.Fatal(err)
	}
	if first.Problem.Metrics.Snapshot().MatrixBuilds != builds {
		t.Fatal("re-solve rebuilt its matrices; the test needs the retained cache entry to answer")
	}
	cold := slideWindow(t, adv, stream, 0, seg*stages, Options{K: 2, SegmentSize: seg})
	for _, sol := range []*core.Solution{first.Solution, again} {
		if math.Float64bits(sol.Cost) != math.Float64bits(cold.Solution.Cost) ||
			math.Float64bits(sol.ExecCost) != math.Float64bits(cold.Solution.ExecCost) {
			t.Fatalf("cost %v (exec %v) != cold cost %v (exec %v)",
				sol.Cost, sol.ExecCost, cold.Solution.Cost, cold.Solution.ExecCost)
		}
	}
	for i, c := range cold.Solution.Designs {
		if again.Designs[i] != c {
			t.Fatalf("stage %d: cache-served design %v != cold %v", i, again.Designs[i], c)
		}
	}
}

// TestValidationErrorIsDeterministic pins the error of validation by
// parallel compile: with bad statements in two segments, whichever
// worker meets which first, Problem answers what a serial pass over the
// window answers — the statement with the lowest window index, in text
// and index — at Parallelism 1 and 4, cold and over a retained store
// whose rows already hold every other segment's tables.
func TestValidationErrorIsDeterministic(t *testing.T) {
	_, adv := testAdvisor(t)
	const seg, stages = 5, 8
	good := distinctStream(seg * stages)
	for _, tc := range []struct{ first, second, want string }{
		{"SELECT nope FROM t", "DROP TABLE t", "advisor: statement 12 (\"SELECT nope FROM t\"): cost: unknown column \"nope\""},
		{"DROP TABLE t", "SELECT a FROM t WHERE zz = 1", "advisor: statement 12 (\"DROP TABLE t\") is not a workload statement"},
	} {
		w := &workload.Workload{}
		w.Append("", good.Statements[:12]...)
		w.Append("", workload.MustStatement(tc.first))
		w.Append("", good.Statements[13:31]...)
		w.Append("", workload.MustStatement(tc.second))
		w.Append("", good.Statements[32:]...)
		memo := NewMemo(0)
		if _, err := adv.Recommend(good, Options{K: 2, SegmentSize: seg, Memo: memo}); err != nil {
			t.Fatal(err)
		}
		for _, opts := range []Options{
			{K: 2, SegmentSize: seg, Parallelism: 1},
			{K: 2, SegmentSize: seg, Parallelism: 4},
			{K: 2, SegmentSize: seg, Parallelism: 4, Memo: memo},
		} {
			for range 10 {
				_, _, err := adv.Problem(w, opts)
				if err == nil || err.Error() != tc.want {
					t.Fatalf("Parallelism %d, retained store %v: error %v, want %q", opts.Parallelism, opts.Memo != nil, err, tc.want)
				}
			}
		}
	}
}

// TestSlideValidatesTheEnteringSegment pins what validation skipping
// must not change: a statement entering a window whose other segments
// are already compiled in the store is still rejected, with the error
// text and the window-global statement index of a full validation pass.
func TestSlideValidatesTheEnteringSegment(t *testing.T) {
	_, adv := testAdvisor(t)
	const seg, stages = 5, 6
	good := distinctStream(seg * stages)
	opts := Options{K: 2, SegmentSize: seg, Memo: NewMemo(0)}
	if _, err := adv.Recommend(good, opts); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ sql, want string }{
		{"SELECT nope FROM t", "advisor: statement 27 (\"SELECT nope FROM t\"): "},
		{"DROP TABLE t", "advisor: statement 27 (\"DROP TABLE t\") is not a workload statement"},
	} {
		w := good.Slice(seg, seg*stages)
		w.Append("", good.Statements[:2]...)
		w.Append("", workload.MustStatement(tc.sql))
		w.Append("", good.Statements[2:4]...)
		if w.Len() != seg*stages {
			t.Fatalf("window holds %d statements, want %d", w.Len(), seg*stages)
		}
		_, _, err := adv.Problem(w, opts)
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Fatalf("entering %q: error %v, want prefix %q", tc.sql, err, tc.want)
		}
		if _, _, coldErr := adv.Problem(w, Options{K: 2, SegmentSize: seg}); coldErr == nil || coldErr.Error() != err.Error() {
			t.Fatalf("entering %q: retained-store error %q != cold error %v", tc.sql, err, coldErr)
		}
	}
}
