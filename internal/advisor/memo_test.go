package advisor

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"dyndesign/internal/core"
	"dyndesign/internal/workload"
)

// distinctStream returns n point queries with pairwise distinct SQL, so
// no two segments of any slice share a content hash.
func distinctStream(n int) *workload.Workload {
	w := &workload.Workload{Name: "stream"}
	cols := []string{"a", "b", "c", "d"}
	for i := 0; i < n; i++ {
		w.Append("", workload.MustStatement(fmt.Sprintf("SELECT a FROM t WHERE %s = %d", cols[i%len(cols)], i)))
	}
	return w
}

// TestExecMemoInvalidationOnWorldChange pins the store's pin in
// isolation: attaching under the same world and candidate list keeps
// every row, while a different world fingerprint — or a different
// candidate list — purges the store and counts one invalidation. An
// attach reports fresh exactly when it created every row it returns.
func TestExecMemoInvalidationOnWorldChange(t *testing.T) {
	m := NewMemo(0)
	configs := SingleIndexConfigs(3)
	hashes := make([]uint64, 100)
	for i := range hashes {
		hashes[i] = uint64(i + 1)
	}
	_, rows, fresh := m.attach(1, configs, hashes)
	if !fresh {
		t.Fatal("the first attach created every row but does not report it fresh")
	}
	rows[0].costs = make([]float64, len(configs))
	want := int64(len(hashes) * len(configs))
	if st := m.Stats(); st.Invalidations != 0 || st.Entries != want {
		t.Fatalf("first attach: %+v, want %d cells and no invalidation", st, want)
	}
	if _, again, fresh := m.attach(1, configs, hashes[:1]); again[0] != rows[0] || fresh {
		t.Fatalf("same-world attach did not resolve the stored row (fresh %v)", fresh)
	}
	if st := m.Stats(); st.Invalidations != 0 || st.Entries != want {
		t.Fatalf("same-world attach purged: %+v", st)
	}
	_, purged, fresh := m.attach(2, configs, hashes[:1])
	if st := m.Stats(); st.Invalidations != 1 || st.Entries != int64(len(configs)) {
		t.Fatalf("after world change: %+v, want 1 invalidation and one empty row", st)
	}
	if purged[0] == rows[0] || purged[0].costs != nil || !fresh {
		t.Fatalf("stale row served after world change (fresh %v)", fresh)
	}
	purged[0].costs = make([]float64, len(configs))
	_, relisted, fresh := m.attach(2, configs[:3], hashes[:1])
	if st := m.Stats(); st.Invalidations != 2 {
		t.Fatalf("Invalidations after candidate-list change = %d, want 2", st.Invalidations)
	}
	if relisted[0].costs != nil || !fresh {
		t.Fatalf("row over the old candidate list served after the list changed (fresh %v)", fresh)
	}
}

// slideWindow is the [lo, lo+stmts) slice of a stream, solved over a
// retained store — one window position of a sliding-window service.
func slideWindow(t *testing.T, adv *Advisor, stream *workload.Workload, lo, stmts int, opts Options) *Recommendation {
	t.Helper()
	rec, err := adv.Recommend(stream.Slice(lo, lo+stmts), opts)
	if err != nil {
		t.Fatalf("window at %d: %v", lo, err)
	}
	return rec
}

// TestSlideCostsOnlyTheNewSegment pins the O(changed segments) re-solve:
// after a window slides by one segment over a retained store, the solve
// compiles exactly the entering segment's plan tables and performs
// exactly len(configs) × len(segment) what-if costings — every other
// stage is a row copy — and still answers what a cold solve answers.
func TestSlideCostsOnlyTheNewSegment(t *testing.T) {
	_, adv := testAdvisor(t)
	const seg, stages = 5, 12
	stream := distinctStream(seg * (stages + 1))
	opts := Options{K: 2, SegmentSize: seg, Memo: NewMemo(0)}
	first := slideWindow(t, adv, stream, 0, seg*stages, opts)
	configs := int64(len(first.Problem.Configs))
	if got, want := first.Stats.WhatIfCalls, configs*seg*stages; got != want {
		t.Fatalf("cold solve performed %d what-if costings, want %d", got, want)
	}
	slid := slideWindow(t, adv, stream, seg, seg*stages, opts)
	if got, want := slid.Stats.WhatIfCalls, configs*seg; got != want {
		t.Fatalf("one-segment slide performed %d what-if costings, want %d", got, want)
	}
	if got := slid.Stats.PlanTableBuilds; got != seg {
		t.Fatalf("one-segment slide compiled %d plan tables, want %d", got, seg)
	}
	if got, want := slid.Stats.HitRate(), float64(stages-1)/stages; got != want {
		t.Fatalf("one-segment slide hit rate %v, want %v", got, want)
	}
	coldOpts := opts
	coldOpts.Memo = nil
	cold := slideWindow(t, adv, stream, seg, seg*stages, coldOpts)
	if math.Float64bits(cold.Solution.Cost) != math.Float64bits(slid.Solution.Cost) {
		t.Fatalf("slide cost %v != cold cost %v", slid.Solution.Cost, cold.Solution.Cost)
	}
	for i, c := range cold.Solution.Designs {
		if slid.Solution.Designs[i] != c {
			t.Fatalf("stage %d: slide design %v != cold %v", i, slid.Solution.Designs[i], c)
		}
	}
}

// TestPerSolveHitRate is the regression for the lifetime-average bug:
// Recommendation.Stats reports the problem's own store traffic — 0 on a
// first solve over unseen segments, 1 on an unchanged-window re-solve —
// while ExecMemo.Stats keeps the running lifetime view.
func TestPerSolveHitRate(t *testing.T) {
	_, adv := testAdvisor(t)
	w := distinctStream(40)
	opts := Options{K: 2, SegmentSize: 4, Memo: NewMemo(0)}
	first, err := adv.Recommend(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.Lookups == 0 || first.Stats.HitRate() != 0 {
		t.Fatalf("first solve: %+v, want lookups and hit rate 0", first.Stats.ProbeStats)
	}
	again, err := adv.Recommend(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if again.Stats.Lookups == 0 || again.Stats.HitRate() != 1 {
		t.Fatalf("unchanged-window re-solve: %+v, want hit rate 1", again.Stats.ProbeStats)
	}
	life := opts.Memo.Stats()
	if want := first.Stats.Lookups + again.Stats.Lookups; life.Lookups != want || life.Hits != again.Stats.Hits {
		t.Fatalf("lifetime %+v, want %d lookups and %d hits", life.ProbeStats, want, again.Stats.Hits)
	}
}

// TestCappedMemoBoundedOverSlides drives 200 one-segment slides through
// a store capped below the window's own cell count plus a margin: the
// occupancy must stay at or below max(capacity, window cells), the
// sweep must record evictions, no row of the problem in hand may be
// evicted, and — since the overlap always survives — every slide must
// still cost only the entering segment.
func TestCappedMemoBoundedOverSlides(t *testing.T) {
	_, adv := testAdvisor(t)
	const seg, stages, slides = 2, 10, 200
	stream := distinctStream(seg * (stages + slides))
	width := len(adv.space.Configs)
	capacity := (stages + 3) * width
	memo := NewMemo(capacity)
	opts := Options{K: 2, SegmentSize: seg, Memo: memo}
	for s := 0; s <= slides; s++ {
		p, segs, err := adv.Problem(stream.Slice(s*seg, (s+stages)*seg), opts)
		if err != nil {
			t.Fatal(err)
		}
		model := p.Model.(*whatIfModel)
		for i, r := range model.rows {
			if memo.rows[segmentHash(segs[i])] != r {
				t.Fatalf("slide %d: stage %d's row was evicted while its problem was being assembled", s, i)
			}
		}
		if _, err := core.Solve(bg, p, core.StrategyKAware); err != nil {
			t.Fatal(err)
		}
		if got, want := model.costStats().WhatIfCalls, int64(width*seg); s > 0 && got != want {
			t.Fatalf("slide %d performed %d what-if costings, want %d (overlap evicted)", s, got, want)
		}
		if st := memo.Stats(); st.Entries > int64(max(capacity, stages*width)) {
			t.Fatalf("slide %d: occupancy %d cells exceeds bound %d", s, st.Entries, max(capacity, stages*width))
		}
	}
	st := memo.Stats()
	if st.Evictions == 0 {
		t.Fatal("capped store recorded no evictions over 200 slides")
	}
	if st.Capacity != capacity {
		t.Fatalf("Capacity = %d, want %d", st.Capacity, capacity)
	}

	// A capacity below one window never evicts the window itself.
	tiny := NewMemo(width)
	opts.Memo = tiny
	rec := slideWindow(t, adv, stream, 0, seg*stages, opts)
	if got, want := rec.Stats.WhatIfCalls, int64(width*seg*stages); got != want {
		t.Fatalf("under-capacity solve performed %d what-if costings, want %d", got, want)
	}
	if st := tiny.Stats(); st.Entries != int64(stages*width) || st.Evictions != 0 {
		t.Fatalf("under-capacity store: %+v, want the whole window resident", st)
	}
}

// retainedBy returns the heap bytes that dropping every reference held by
// release frees.
func retainedBy(release func()) int64 {
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before := heap()
	release()
	return before - heap()
}

// TestCappedMemoBoundsBytes pins that the capacity is a bound in bytes
// for a narrow candidate list too: a store fed ten times its row budget
// of distinct one-statement rows at width 7 — advisord's shape, where a
// row's 56 B of cost cells are an eighth of what it retains — holds no
// more rows than the capacity pays for, so bytes on the order of
// capacity × 8, and still never evicts a row of the problem in hand.
// Charged by cost cells alone the same capacity kept every one of the
// 20 000 rows, 8 MB where it reads as 1.1 MB.
func TestCappedMemoBoundsBytes(t *testing.T) {
	_, adv := testAdvisor(t)
	width := len(adv.space.Configs)
	if width != 7 {
		t.Fatalf("fixture has %d configurations, the measurement is for 7", width)
	}
	const window, budget = 500, 2000
	capacity := budget * (width + rowOverheadCells)
	stream := distinctStream(10 * budget)
	memo := NewMemo(capacity)
	opts := Options{K: 2, SegmentSize: 1, Memo: memo}
	for lo := 0; lo+window <= stream.Len(); lo += window {
		p, segs, err := adv.Problem(stream.Slice(lo, lo+window), opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range p.Model.(*whatIfModel).rows {
			if memo.rows[segmentHash(segs[i])] != r {
				t.Fatalf("window at %d: stage %d's row was evicted while its problem was being assembled", lo, i)
			}
		}
		if _, err := core.Solve(bg, p, core.StrategyKAware); err != nil {
			t.Fatal(err)
		}
		if got := len(memo.rows); got > budget {
			t.Fatalf("window at %d: %d rows resident, the capacity pays for %d", lo, got, budget)
		}
	}
	st := memo.Stats()
	if st.Evictions == 0 || st.Entries != int64(len(memo.rows)*width) || st.Capacity != capacity {
		t.Fatalf("stats %+v: want evictions, %d cost cells resident, capacity %d", st, len(memo.rows)*width, capacity)
	}
	// The row count above is the exact bound. The bytes are a heap
	// measurement that moves with the Go version, the architecture and the
	// allocator's size classes (≈0.9 MB here), so it is held to twice what
	// the capacity reads as — still a quarter of what the uncapped rows
	// took.
	if got, bound := retainedBy(func() { memo, opts.Memo = nil, nil }), 2*int64(capacity)*8; got > bound {
		t.Fatalf("the capped store retains %d bytes, twice its capacity of %d cells reads as %d", got, capacity, bound)
	}
}

// TestAdvisorRetainedStoreAcrossCandidateListChange mirrors the stats
// refresh regression below for the store's other pin: rows are dense
// over one candidate list, so a solve over a different list must purge
// them and cost from scratch — never index a row laid out for the old
// list.
func TestAdvisorRetainedStoreAcrossCandidateListChange(t *testing.T) {
	db, adv := testAdvisor(t)
	w := testWorkload(t)
	opts := paperOpts(2)
	opts.Memo = NewMemo(0)
	if _, err := adv.Recommend(w, opts); err != nil {
		t.Fatal(err)
	}
	space := paperSpace()
	space.Configs = append([]core.Config{space.Configs[len(space.Configs)-1]}, space.Configs[:len(space.Configs)-1]...)
	reordered, err := New(db, space)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := reordered.Recommend(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := opts.Memo.Stats(); st.Invalidations != 1 {
		t.Fatalf("Invalidations after candidate-list change = %d, want 1", st.Invalidations)
	}
	cold, err := reordered.Recommend(w, paperOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(rec.Solution.Cost) != math.Float64bits(cold.Solution.Cost) {
		t.Fatalf("post-purge cost %v != cold cost %v", rec.Solution.Cost, cold.Solution.Cost)
	}
	if got, want := rec.Stats.WhatIfCalls, cold.Stats.WhatIfCalls; got != want {
		t.Fatalf("post-purge solve performed %d what-if costings, cold %d", got, want)
	}
}

// TestAdvisorRetainedStateAcrossStatsRefresh is the end-to-end staleness
// regression of the satellite bugfixes: one advisor retaining a memo and
// a solve cache across recommendations must (a) cost an unchanged
// window entirely from the retained rows and (b) discard them the
// moment the table's histograms are mutated in place, because the
// world fingerprint changed even though every pointer stayed the same.
// Cost tables belong to one problem's model, so every recommendation
// builds its own over the rows, retained cache or not.
func TestAdvisorRetainedStateAcrossStatsRefresh(t *testing.T) {
	_, adv := testAdvisor(t)
	w := testWorkload(t)
	opts := paperOpts(2)
	opts.Memo = NewMemo(0)
	opts.Cache = core.NewSolveCache()

	rec1, err := adv.Recommend(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rec1.Stats.WhatIfCalls == 0 {
		t.Fatal("first solve performed no what-if costings")
	}

	// Unchanged world: the re-solve must be served wholly from the
	// retained memo (zero fresh costings).
	rec2, err := adv.Recommend(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec2.Stats.WhatIfCalls; got != 0 {
		t.Fatalf("unchanged-window re-solve performed %d what-if costings, want 0 (memo not reused)", got)
	}
	if got := rec2.Problem.Metrics.Snapshot().MatrixBuilds; got != 1 {
		t.Fatalf("unchanged-window re-solve built %d matrices, want 1 (its own, over the retained rows)", got)
	}
	if rec1.Solution.Cost != rec2.Solution.Cost {
		t.Fatalf("re-solve cost %v != first cost %v", rec2.Solution.Cost, rec1.Solution.Cost)
	}
	if st := opts.Memo.Stats(); st.Invalidations != 0 {
		t.Fatalf("unchanged world purged the memo: %+v", st)
	}

	// "Refresh the statistics": mutate the histograms in place — same
	// TableStats pointer, new contents. The world fingerprint must change.
	for _, cs := range adv.world.Load().table.Stats.Columns {
		cs.NDV = cs.NDV/2 + 1
		if cs.Hist != nil {
			for i := range cs.Hist.Buckets {
				cs.Hist.Buckets[i].Count = cs.Hist.Buckets[i].Count*3 + 7
			}
		}
	}

	rec3, err := adv.Recommend(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := opts.Memo.Stats(); st.Invalidations != 1 {
		t.Fatalf("Invalidations after stats refresh = %d, want 1", st.Invalidations)
	}
	if got := rec3.Stats.WhatIfCalls; got == 0 {
		t.Fatal("post-refresh solve served stale memo entries (0 what-if costings)")
	}
	if got := rec3.Problem.Metrics.Snapshot().MatrixBuilds; got != 1 {
		t.Fatalf("post-refresh solve built %d matrices, want 1 (stale tables replayed)", got)
	}
}
