package storage

import (
	"bytes"
	"math/rand"
	"sync/atomic"
	"testing"
)

// messyHeap builds a heap of the given number of pages, then deletes
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
		case rid.Page >= 3 && rid.Page < 9: // emptied pages
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

// TestScanPagesMatchesScan: on messy heaps of one and of many pages,
// ScanPages stopped at every page in turn (emptied ones too) or never,
// and Scan stopped at every row in turn or never, yield the rows of a
// walk of the heap's pages and slots, in that order, up to where they
// stopped, and charge one read per page up to and including the page
// they stopped on. The payloads alias the pages, which nothing mutates
// meanwhile.
func TestScanPagesMatchesScan(t *testing.T) {
	for _, pages := range []int{1, 2, 16} {
		var stats AccessStats
		h := messyHeap(t, &stats, pages)
		// The oracle: every live row, and the index of its page.
		var want []heapRow
		var pageOf []int
		for k, p := range h.pages {
			for i := range p.Slots() {
				if payload, live := p.Live(i); live {
					want = append(want, heapRow{RID{Page: p.id, Slot: uint16(i)}, bytes.Clone(payload)})
					pageOf = append(pageOf, k)
				}
			}
		}
		n := len(h.pages)
		for stop := -1; stop < n; stop++ {
			var got []heapRow
			k := 0
			before := stats.Snapshot()
			h.ScanPages(func(p *Page) bool {
				for i := range p.Slots() {
					if payload, live := p.Live(i); live {
						got = append(got, heapRow{RID{Page: p.ID(), Slot: uint16(i)}, payload})
					}
				}
				k++
				return k-1 != stop
			})
			charged := stats.Snapshot().Sub(before)
			wantRows, wantReads := want, int64(n)
			if stop >= 0 {
				wantRows, wantReads = want[:0], int64(stop+1)
				for i := range want {
					if pageOf[i] <= stop {
						wantRows = want[:i+1]
					}
				}
			}
			if !sameRows(got, wantRows) || charged != (AccessSnapshot{Reads: wantReads}) {
				t.Fatalf("%d pages, stop at page %d: ScanPages gave %d rows for %+v; want %d for %d reads",
					pages, stop, len(got), charged, len(wantRows), wantReads)
			}
		}
		for stop := -1; stop < len(want); stop++ {
			var got []heapRow
			before := stats.Snapshot()
			h.Scan(func(rid RID, payload []byte) bool {
				got = append(got, heapRow{rid, payload})
				return len(got)-1 != stop
			})
			charged := stats.Snapshot().Sub(before)
			wantRows, wantReads := want, int64(n)
			if stop >= 0 {
				wantRows, wantReads = want[:stop+1], int64(pageOf[stop]+1)
			}
			if !sameRows(got, wantRows) || charged != (AccessSnapshot{Reads: wantReads}) {
				t.Fatalf("%d pages, stop at row %d: Scan gave %d rows for %+v; want %d for %d reads",
					pages, stop, len(got), charged, len(wantRows), wantReads)
			}
		}
	}
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
	h := messyHeap(t, nil, 48)
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
