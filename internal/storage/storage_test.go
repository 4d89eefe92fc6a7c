package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

func payloadOf(n int, fill byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = fill
	}
	return b
}

func TestHeapInsertGet(t *testing.T) {
	var stats AccessStats
	h := NewHeapFile(&stats)
	rid, err := h.Insert([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Get(rid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("hello")) {
		t.Errorf("Get = %q", got)
	}
	if h.NumRows() != 1 {
		t.Errorf("NumRows = %d", h.NumRows())
	}
	if stats.Writes() != 1 || stats.Reads() != 1 {
		t.Errorf("stats = %d reads, %d writes", stats.Reads(), stats.Writes())
	}
}

func TestHeapGetReturnsCopy(t *testing.T) {
	h := NewHeapFile(nil)
	rid, _ := h.Insert([]byte("abc"))
	got, _ := h.Get(rid)
	got[0] = 'X'
	again, _ := h.Get(rid)
	if again[0] != 'a' {
		t.Error("Get result aliases page memory")
	}
}

func TestHeapDelete(t *testing.T) {
	h := NewHeapFile(nil)
	rid, _ := h.Insert([]byte("gone"))
	if err := h.Delete(rid); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Get(rid); err == nil {
		t.Error("Get of deleted row succeeded")
	}
	if err := h.Delete(rid); err == nil {
		t.Error("double delete succeeded")
	}
	if h.NumRows() != 0 {
		t.Errorf("NumRows = %d", h.NumRows())
	}
}

func TestHeapSlotNumbersStableAcrossDelete(t *testing.T) {
	h := NewHeapFile(nil)
	r1, _ := h.Insert([]byte("one"))
	r2, _ := h.Insert([]byte("two"))
	r3, _ := h.Insert([]byte("three"))
	if err := h.Delete(r2); err != nil {
		t.Fatal(err)
	}
	if got, _ := h.Get(r1); !bytes.Equal(got, []byte("one")) {
		t.Error("r1 corrupted by delete of r2")
	}
	if got, _ := h.Get(r3); !bytes.Equal(got, []byte("three")) {
		t.Error("r3 corrupted by delete of r2")
	}
}

func TestHeapDeadSlotReuse(t *testing.T) {
	h := NewHeapFile(nil)
	r1, _ := h.Insert([]byte("aaaa"))
	if err := h.Delete(r1); err != nil {
		t.Fatal(err)
	}
	r2, _ := h.Insert([]byte("bbbb"))
	if r2 != r1 {
		t.Errorf("dead slot not reused: %v then %v", r1, r2)
	}
}

func TestHeapUpdateInPlaceAndMove(t *testing.T) {
	h := NewHeapFile(nil)
	rid, _ := h.Insert([]byte("abcdef"))
	// Smaller payload: in place.
	nrid, err := h.Update(rid, []byte("xyz"))
	if err != nil {
		t.Fatal(err)
	}
	if nrid != rid {
		t.Errorf("in-place update moved row: %v -> %v", rid, nrid)
	}
	got, _ := h.Get(rid)
	if !bytes.Equal(got, []byte("xyz")) {
		t.Errorf("after update Get = %q", got)
	}
	// Larger payload: may move, but content must be right either way.
	nrid, err = h.Update(rid, payloadOf(100, 'Q'))
	if err != nil {
		t.Fatal(err)
	}
	got, _ = h.Get(nrid)
	if len(got) != 100 || got[0] != 'Q' {
		t.Errorf("after growing update Get = %d bytes", len(got))
	}
	if h.NumRows() != 1 {
		t.Errorf("NumRows = %d after updates", h.NumRows())
	}
}

func TestHeapMultiPageAndScanOrder(t *testing.T) {
	h := NewHeapFile(nil)
	const n = 2000
	rids := make([]RID, n)
	for i := 0; i < n; i++ {
		rid, err := h.Insert(payloadOf(50, byte(i)))
		if err != nil {
			t.Fatal(err)
		}
		rids[i] = rid
	}
	if h.NumPages() < 2 {
		t.Fatalf("expected multiple pages, got %d", h.NumPages())
	}
	var seen int
	var last RID
	first := true
	h.Scan(func(rid RID, payload []byte) bool {
		if !first && rid.Compare(last) <= 0 {
			t.Errorf("scan out of RID order: %v after %v", rid, last)
		}
		last, first = rid, false
		seen++
		return true
	})
	if seen != n {
		t.Errorf("scan saw %d rows, want %d", seen, n)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestHeapScanEarlyStop(t *testing.T) {
	h := NewHeapFile(nil)
	for i := 0; i < 10; i++ {
		h.Insert([]byte{byte(i)})
	}
	seen := 0
	h.Scan(func(RID, []byte) bool {
		seen++
		return seen < 3
	})
	if seen != 3 {
		t.Errorf("early stop saw %d rows", seen)
	}
}

func TestHeapScanChargesPerPage(t *testing.T) {
	var stats AccessStats
	h := NewHeapFile(&stats)
	for i := 0; i < 1000; i++ {
		h.Insert(payloadOf(60, 1))
	}
	stats.Reset()
	h.Scan(func(RID, []byte) bool { return true })
	if stats.Reads() != int64(h.NumPages()) {
		t.Errorf("scan charged %d reads for %d pages", stats.Reads(), h.NumPages())
	}
}

func TestHeapRejectsOversizedPayload(t *testing.T) {
	h := NewHeapFile(nil)
	if _, err := h.Insert(payloadOf(MaxPayload+1, 0)); err == nil {
		t.Error("oversized insert succeeded")
	}
	rid, _ := h.Insert([]byte("ok"))
	if _, err := h.Update(rid, payloadOf(MaxPayload+1, 0)); err == nil {
		t.Error("oversized update succeeded")
	}
}

func TestHeapMaxPayloadFits(t *testing.T) {
	h := NewHeapFile(nil)
	rid, err := h.Insert(payloadOf(MaxPayload, 7))
	if err != nil {
		t.Fatalf("MaxPayload insert failed: %v", err)
	}
	got, _ := h.Get(rid)
	if len(got) != MaxPayload {
		t.Errorf("got %d bytes", len(got))
	}
}

func TestHeapCompactionReclaimsSpace(t *testing.T) {
	h := NewHeapFile(nil)
	// Fill page 0 exactly with 16 large rows (each row consumes
	// payload + one slot entry), delete every other one, then insert a
	// payload that only fits after compaction.
	big := (PageSize - pageHeaderSize) / 16
	payload := big - slotEntrySize
	var rids []RID
	for i := 0; i < 16; i++ {
		rid, err := h.Insert(payloadOf(payload, 3))
		if err != nil {
			t.Fatal(err)
		}
		if rid.Page != 0 {
			t.Fatalf("row %d spilled to page %d; expected all 16 on page 0", i, rid.Page)
		}
		rids = append(rids, rid)
	}
	for i := 0; i < len(rids); i += 2 {
		if err := h.Delete(rids[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Half the page is garbage now; a payload of ~3 slots' size must fit
	// into page 0 via compaction rather than allocating page 2.
	rid, err := h.Insert(payloadOf(big*3, 9))
	if err != nil {
		t.Fatal(err)
	}
	if rid.Page != 0 {
		t.Errorf("insert went to page %d; compaction did not reclaim garbage", rid.Page)
	}
	got, _ := h.Get(rid)
	if len(got) != big*3 || got[0] != 9 {
		t.Error("payload corrupted by compaction")
	}
	// Survivors must be intact.
	for i := 1; i < len(rids); i += 2 {
		got, err := h.Get(rids[i])
		if err != nil || len(got) != payload || got[0] != 3 {
			t.Errorf("survivor %v corrupted after compaction: %v", rids[i], err)
		}
	}
	if err := h.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestHeapRandomizedAgainstModel(t *testing.T) {
	// Model-based test: random inserts/deletes/updates mirrored in a map.
	rng := rand.New(rand.NewSource(42))
	h := NewHeapFile(nil)
	model := make(map[RID][]byte)
	var live []RID
	for op := 0; op < 5000; op++ {
		switch r := rng.Intn(10); {
		case r < 5 || len(live) == 0: // insert
			p := payloadOf(1+rng.Intn(200), byte(op))
			rid, err := h.Insert(p)
			if err != nil {
				t.Fatal(err)
			}
			if _, dup := model[rid]; dup {
				t.Fatalf("op %d: RID %v handed out twice", op, rid)
			}
			model[rid] = p
			live = append(live, rid)
		case r < 8: // delete
			i := rng.Intn(len(live))
			rid := live[i]
			if err := h.Delete(rid); err != nil {
				t.Fatalf("op %d: delete %v: %v", op, rid, err)
			}
			delete(model, rid)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		default: // update
			i := rng.Intn(len(live))
			rid := live[i]
			p := payloadOf(1+rng.Intn(300), byte(op))
			nrid, err := h.Update(rid, p)
			if err != nil {
				t.Fatalf("op %d: update %v: %v", op, rid, err)
			}
			if nrid != rid {
				delete(model, rid)
				if _, dup := model[nrid]; dup {
					t.Fatalf("op %d: moved to occupied RID %v", op, nrid)
				}
				live[i] = nrid
			}
			model[nrid] = p
		}
	}
	if int64(len(model)) != h.NumRows() {
		t.Fatalf("model has %d rows, heap has %d", len(model), h.NumRows())
	}
	for rid, want := range model {
		got, err := h.Get(rid)
		if err != nil {
			t.Fatalf("Get(%v): %v", rid, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Get(%v) mismatch", rid)
		}
	}
	seen := make(map[RID]bool)
	h.Scan(func(rid RID, payload []byte) bool {
		if want, ok := model[rid]; !ok || !bytes.Equal(payload, want) {
			t.Fatalf("scan saw unexpected row %v", rid)
		}
		seen[rid] = true
		return true
	})
	if len(seen) != len(model) {
		t.Fatalf("scan saw %d rows, model has %d", len(seen), len(model))
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRIDCompareAndString(t *testing.T) {
	a := RID{Page: 1, Slot: 2}
	b := RID{Page: 1, Slot: 3}
	c := RID{Page: 2, Slot: 0}
	if a.Compare(b) >= 0 || b.Compare(c) >= 0 || a.Compare(a) != 0 || c.Compare(a) <= 0 {
		t.Error("RID ordering wrong")
	}
	if a.String() != "1:2" {
		t.Errorf("RID.String() = %q", a.String())
	}
}

func TestAccessStats(t *testing.T) {
	var s AccessStats
	s.Read(3)
	s.Write(2)
	if s.Reads() != 3 || s.Writes() != 2 || s.Total() != 5 {
		t.Errorf("stats = %d/%d", s.Reads(), s.Writes())
	}
	snap1 := s.Snapshot()
	s.Read(10)
	diff := s.Snapshot().Sub(snap1)
	if diff.Reads != 10 || diff.Writes != 0 || diff.Total() != 10 {
		t.Errorf("snapshot diff = %+v", diff)
	}
	s.Reset()
	if s.Total() != 0 {
		t.Error("Reset did not zero counters")
	}
}

func TestAccessStatsNilSafe(t *testing.T) {
	var s *AccessStats
	s.Read(1)
	s.Write(1)
	s.Reset()
	if s.Reads() != 0 || s.Writes() != 0 || s.Total() != 0 {
		t.Error("nil stats not zero")
	}
}

func TestHeapErrorPaths(t *testing.T) {
	h := NewHeapFile(nil)
	bad := RID{Page: 99, Slot: 0}
	if _, err := h.Get(bad); err == nil {
		t.Error("Get of bad page succeeded")
	}
	if err := h.Delete(bad); err == nil {
		t.Error("Delete of bad page succeeded")
	}
	if _, err := h.Update(bad, []byte("x")); err == nil {
		t.Error("Update of bad page succeeded")
	}
	rid, _ := h.Insert([]byte("x"))
	if _, err := h.Get(RID{Page: rid.Page, Slot: 50}); err == nil {
		t.Error("Get of bad slot succeeded")
	}
}

func TestHeapManyPagesInvariants(t *testing.T) {
	h := NewHeapFile(nil)
	for i := 0; i < 20000; i++ {
		if _, err := h.Insert([]byte(fmt.Sprintf("row-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if h.NumRows() != 20000 {
		t.Errorf("NumRows = %d", h.NumRows())
	}
}

// TestPageViewEmptiedByMutations: an insert, an insert that compacts the
// page, a delete, an in-place update of the same size and a shorter one,
// and an Update that moves the row each empty the derived-data slot of
// every page they change, and of no other page.
func TestPageViewEmptiedByMutations(t *testing.T) {
	h := NewHeapFile(nil)
	var rids []RID
	for len(h.pages) < 4 {
		rid, err := h.Insert(payloadOf(200, byte(len(rids))))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	onPage := func(id PageID) []RID {
		var out []RID
		for _, rid := range rids {
			if rid.Page == id {
				out = append(out, rid)
			}
		}
		return out
	}
	type mark struct{ page PageID }
	// step marks every page, runs do, and checks that exactly the pages
	// do reports changed lost their marks.
	step := func(name string, do func() []PageID) {
		t.Helper()
		for _, p := range h.pages {
			*p.View() = &mark{p.id}
		}
		changed := do()
		for _, p := range h.pages {
			m, kept := (*p.View()).(*mark)
			if slices.Contains(changed, p.id) {
				if *p.View() != nil {
					t.Fatalf("%s: page %d changed and kept its view", name, p.id)
				}
			} else if !kept || m.page != p.id {
				t.Fatalf("%s: page %d did not change and lost its view", name, p.id)
			}
		}
		if err := h.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	step("insert", func() []PageID {
		rid, err := h.Insert(payloadOf(200, 0xAA))
		if err != nil {
			t.Fatal(err)
		}
		return []PageID{rid.Page}
	})
	step("delete", func() []PageID {
		for _, rid := range onPage(0)[:3] {
			if err := h.Delete(rid); err != nil {
				t.Fatal(err)
			}
		}
		return []PageID{0}
	})
	step("insert with compaction", func() []PageID {
		p := h.pages[0]
		if p.contiguousFree() >= 500 || p.room() < 500 {
			t.Fatalf("page 0 has %d contiguous bytes free and room %d: no compaction", p.contiguousFree(), p.room())
		}
		h.insertHint = 0
		rid, err := h.Insert(payloadOf(500, 0xBB))
		if err != nil || rid.Page != 0 || p.garbage() != 0 {
			t.Fatalf("insert went to %v (%v), garbage %d", rid, err, p.garbage())
		}
		return []PageID{0}
	})
	step("same-size update in place", func() []PageID {
		rid := onPage(1)[2]
		if got, err := h.Update(rid, payloadOf(200, 0xCC)); err != nil || got != rid {
			t.Fatalf("update moved %v to %v (%v)", rid, got, err)
		}
		return []PageID{1}
	})
	step("shorter update in place", func() []PageID {
		rid := onPage(2)[5]
		if got, err := h.Update(rid, payloadOf(120, 0xDD)); err != nil || got != rid {
			t.Fatalf("update moved %v to %v (%v)", rid, got, err)
		}
		return []PageID{2}
	})
	step("moving update", func() []PageID {
		rid := onPage(1)[0]
		h.insertHint = 1 // a full page: the insert fails there and moves on
		got, err := h.Update(rid, payloadOf(1500, 0xEE))
		if err != nil || got.Page == rid.Page {
			t.Fatalf("update of %v went to %v (%v)", rid, got, err)
		}
		return []PageID{rid.Page, got.Page}
	})
}
