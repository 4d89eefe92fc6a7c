package storage

import (
	"bytes"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// withProcs runs f under GOMAXPROCS procs and restores the old value.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// settleGoroutines waits up to a second for the goroutine count to fall
// to want: a helper that was never scheduled exits the first time it
// runs, after the scan has returned.
func settleGoroutines(want int) int {
	deadline := time.Now().Add(time.Second)
	n := runtime.NumGoroutine()
	for n > want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// messyHeap builds a heap of pages chunks' worth of rows, then deletes
// rows here and there, empties a run of whole pages and grows rows so
// that they move.
func messyHeap(t *testing.T, stats *AccessStats, pages int) *HeapFile {
	t.Helper()
	h := NewHeapFile(stats)
	rng := rand.New(rand.NewSource(int64(pages)))
	var rids []RID
	for h.NumPages() < pages {
		rid, err := h.Insert(payloadOf(20+rng.Intn(40), byte(len(rids))))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	for i, rid := range rids {
		var err error
		switch {
		case rid.Page >= 3 && rid.Page < 3+ScanChunk+2: // emptied pages, across a chunk boundary
			err = h.Delete(rid)
		case i%7 == 0:
			err = h.Delete(rid)
		case i%11 == 0:
			_, err = h.Update(rid, payloadOf(200, byte(i)))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return h
}

type heapRow struct {
	rid     RID
	payload []byte
}

func sameRows(a, b []heapRow) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].rid != b[i].rid || !bytes.Equal(a[i].payload, b[i].payload) {
			return false
		}
	}
	return true
}

// pageRows adapts a row callback to ScanChunks' page callback: it calls
// fn for the page's live rows in slot order, as Scan does.
func pageRows(fn func(RID, []byte) bool) func(*Page) bool {
	return func(p *Page) bool {
		for i := range p.Slots() {
			if payload, live := p.Live(i); live && !fn(RID{Page: p.ID(), Slot: uint16(i)}, payload) {
				return false
			}
		}
		return true
	}
}

// TestScanChunksMatchesScan: at GOMAXPROCS 1 to 4, on heaps below and
// above the split threshold, ScanChunks yields Scan's (RID, payload)
// sequence and charges Scan's page reads — for a full scan and for scans
// that end at rows in different chunks.
func TestScanChunksMatchesScan(t *testing.T) {
	for _, pages := range []int{1, ScanChunk * (minSplitChunks - 1), ScanChunk*minSplitChunks + 1, ScanChunk * 9} {
		var stats AccessStats
		h := messyHeap(t, &stats, pages)
		for _, stopAt := range []int{-1, 0, 150, 1700, 5000} {
			var want []heapRow
			before := stats.Snapshot()
			h.Scan(func(rid RID, payload []byte) bool {
				want = append(want, heapRow{rid, bytes.Clone(payload)})
				return len(want)-1 != stopAt
			})
			wantCharge := stats.Snapshot().Sub(before)
			stopping := stopAt >= 0 && stopAt < len(want)
			for procs := 1; procs <= 4; procs++ {
				var got []heapRow
				var charged AccessSnapshot
				withProcs(procs, func() {
					before := stats.Snapshot()
					parts := ScanChunks(h, func(part *[]heapRow) func(*Page) bool {
						return pageRows(func(rid RID, payload []byte) bool {
							*part = append(*part, heapRow{rid, bytes.Clone(payload)})
							if stopping && rid == want[stopAt].rid {
								// Give the helper time to run chunks past this
								// one: they must be neither returned nor charged.
								time.Sleep(time.Millisecond)
								return false
							}
							return true
						})
					})
					charged = stats.Snapshot().Sub(before)
					for _, p := range parts {
						got = append(got, p...)
					}
				})
				if !sameRows(got, want) {
					t.Fatalf("%d pages, stop %d, GOMAXPROCS %d: %d rows differ from Scan's %d", pages, stopAt, procs, len(got), len(want))
				}
				if charged != wantCharge {
					t.Fatalf("%d pages, stop %d, GOMAXPROCS %d: charged %+v, Scan %+v", pages, stopAt, procs, charged, wantCharge)
				}
			}
		}
	}
}

// TestRunChunksRunsEachChunkOnce: without a stop every chunk runs once
// and all count, at sizes below and above the threshold.
func TestRunChunksRunsEachChunkOnce(t *testing.T) {
	for _, n := range []int{0, 1, minSplitChunks - 1, minSplitChunks, 100} {
		runs := make([]atomic.Int32, n)
		if got := runChunks(n, func(c int) bool { runs[c].Add(1); return true }); got != n {
			t.Errorf("n=%d: %d chunks counted", n, got)
		}
		for c := range runs {
			if r := runs[c].Load(); r != 1 {
				t.Errorf("n=%d: chunk %d ran %d times", n, c, r)
			}
		}
	}
}

// TestRunChunksCountsFirstStop: when two chunks end the scan, the lower
// one decides what counts, whichever claimant met it and whenever.
func TestRunChunksCountsFirstStop(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		n := minSplitChunks + trial%40
		a, b := trial%n, (trial*7+3)%n
		want := min(a, b) + 1
		got := runChunks(n, func(c int) bool {
			if c%3 == 0 {
				runtime.Gosched()
			}
			return c != a && c != b
		})
		if got != want {
			t.Fatalf("n=%d, stops at %d and %d: %d chunks counted, want %d", n, a, b, got, want)
		}
	}
}

// TestRunChunksHelperPanicSurfaces: a panic in a chunk the helper runs
// is re-raised on the caller, after the caller's own chunks.
func TestRunChunksHelperPanicSurfaces(t *testing.T) {
	withProcs(max(2, runtime.GOMAXPROCS(0)), func() {
		for attempt := 0; attempt < 20; attempt++ {
			helped := false
			func() {
				defer func() {
					switch p := recover(); {
					case p == nil:
					case p == "helper chunk":
						helped = true
					default:
						t.Fatalf("recovered %v", p)
					}
				}()
				runChunks(64, func(c int) bool {
					if strings.Contains(string(debug.Stack()), "(*chunkRun).help(") {
						panic("helper chunk")
					}
					time.Sleep(100 * time.Microsecond)
					return true
				})
			}()
			if helped {
				return
			}
		}
		t.Fatal("the helper never ran a chunk in 20 scans of 64 chunks")
	})
}

// TestRunChunksNoLeftoverGoroutine: after a split scan — whole, ended
// early, or ended by a panic on the caller — the goroutine count returns
// to its baseline (or below it, when an earlier test's goroutine exits
// meanwhile).
func TestRunChunksNoLeftoverGoroutine(t *testing.T) {
	withProcs(max(2, runtime.GOMAXPROCS(0)), func() {
		base := runtime.NumGoroutine()
		for i := 0; i < 50; i++ {
			runChunks(32, func(c int) bool { return true })
			runChunks(32, func(c int) bool { return c != 5 })
			func() {
				defer func() { recover() }()
				runChunks(32, func(c int) bool {
					if c == 9 && !strings.Contains(string(debug.Stack()), "(*chunkRun).help(") {
						panic("caller chunk")
					}
					return true
				})
			}()
		}
		if n := settleGoroutines(base); n > base {
			t.Fatalf("%d goroutines after the scans, %d before", n, base)
		}
	})
}

// TestRunChunksSerialAtOneProc: under GOMAXPROCS 1 a scan long enough to
// split starts no goroutine, runs the chunks in order on the caller and
// returns what the split schedule returns.
func TestRunChunksSerialAtOneProc(t *testing.T) {
	var stats AccessStats
	h := messyHeap(t, &stats, ScanChunk*6)
	scan := func() ([]heapRow, AccessSnapshot, int) {
		var extra atomic.Int64
		before := stats.Snapshot()
		base := runtime.NumGoroutine()
		var rows []heapRow
		for _, p := range ScanChunks(h, func(part *[]heapRow) func(*Page) bool {
			if d := runtime.NumGoroutine() - base; d > 0 {
				extra.Store(int64(d))
			}
			return pageRows(func(rid RID, payload []byte) bool {
				*part = append(*part, heapRow{rid, bytes.Clone(payload)})
				return true
			})
		}) {
			rows = append(rows, p...)
		}
		return rows, stats.Snapshot().Sub(before), int(extra.Load())
	}
	var serial []heapRow
	var serialCharge AccessSnapshot
	withProcs(1, func() {
		var extra int
		serial, serialCharge, extra = scan()
		if extra != 0 {
			t.Errorf("GOMAXPROCS 1: %d goroutines started", extra)
		}
		order := -1
		runChunks(40, func(c int) bool {
			if c != order+1 {
				t.Errorf("GOMAXPROCS 1: chunk %d after chunk %d", c, order)
			}
			order = c
			return true
		})
	})
	withProcs(max(2, runtime.GOMAXPROCS(0)), func() {
		split, charge, _ := scan()
		if !sameRows(split, serial) || charge != serialCharge {
			t.Errorf("split scan: %d rows, %+v; serial %d rows, %+v", len(split), charge, len(serial), serialCharge)
		}
	})
}

// TestUpdateMoveKeepsRowCount: a concurrent NumRows poller never sees
// the live-row count drop while updates move rows to other pages.
func TestUpdateMoveKeepsRowCount(t *testing.T) {
	h := NewHeapFile(nil)
	var rids []RID
	for i := 0; i < 2000; i++ {
		rid, err := h.Insert(payloadOf(30, byte(i)))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	want := h.NumRows()
	var stop atomic.Bool
	var dropped atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !stop.Load() {
			if n := h.NumRows(); n != want {
				dropped.Store(n)
				return
			}
		}
	}()
	moved := 0
	for i, rid := range rids {
		nrid, err := h.Update(rid, payloadOf(60+i%50, byte(i)))
		if err != nil {
			t.Fatal(err)
		}
		if nrid != rid {
			moved++
		}
	}
	stop.Store(true)
	<-done
	if n := dropped.Load(); n != 0 {
		t.Fatalf("NumRows read %d during moving updates of %d rows", n, want)
	}
	if moved == 0 {
		t.Fatal("no update moved its row")
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestScanRIDsStrictlyAscending: Scan yields every live row once, in
// strictly ascending RID order, after deletes, moves, and inserts into
// the holes they left that compact pages — the order the online index
// build's stable sort relies on for its (key, RID) order.
func TestScanRIDsStrictlyAscending(t *testing.T) {
	h := messyHeap(t, nil, ScanChunk*3)
	live := make(map[RID][]byte)
	h.Scan(func(rid RID, payload []byte) bool {
		live[rid] = bytes.Clone(payload)
		return true
	})
	garbage := func() int {
		n := 0
		for _, p := range h.pages {
			if p.garbage() > 0 {
				n++
			}
		}
		return n
	}
	before := garbage()
	for i := 0; i < 3000; i++ {
		payload := payloadOf(30+i%90, byte(i))
		rid, err := h.Insert(payload)
		if err != nil {
			t.Fatal(err)
		}
		live[rid] = payload
	}
	if after := garbage(); before == 0 || after >= before {
		t.Fatalf("pages with garbage: %d before the inserts, %d after; the test wants compactions", before, after)
	}
	var prev RID
	n := 0
	h.Scan(func(rid RID, payload []byte) bool {
		if n > 0 && prev.Compare(rid) >= 0 {
			t.Fatalf("row %d: RID %v after %v", n, rid, prev)
		}
		if want, ok := live[rid]; !ok || !bytes.Equal(payload, want) {
			t.Fatalf("row %d: RID %v holds % x, want % x (live %v)", n, rid, payload, want, ok)
		}
		prev = rid
		n++
		return true
	})
	if n != len(live) {
		t.Fatalf("scan yielded %d rows, %d are live", n, len(live))
	}
}
