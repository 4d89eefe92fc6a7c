package storage

import (
	"bytes"
	"math/rand"
	"testing"
)

// linearHeap is the oracle of TestFirstFitMatchesLinearScan: heap
// placement by visiting pages, as HeapFile placed rows before it kept a
// dead-slot count and a free-space index. An insert tries the hinted
// page, then every page in id order, then a new page; whether a page fits
// is decided by scanning its slot directory for a dead slot.
type linearHeap struct {
	pages []*Page
	hint  PageID
}

func linearDeadSlot(p *Page) (uint16, bool) {
	for i := uint16(0); i < p.slotCount(); i++ {
		if _, l := p.slot(i); l == deadLen {
			return i, true
		}
	}
	return 0, false
}

func linearCanFit(p *Page, size int) bool {
	need := size
	if _, ok := linearDeadSlot(p); !ok {
		need += slotEntrySize
	}
	return p.contiguousFree()+int(p.garbage()) >= need
}

func linearPageInsert(p *Page, payload []byte) (uint16, bool) {
	if !linearCanFit(p, len(payload)) {
		return 0, false
	}
	n := p.slotCount()
	slot, reuse := linearDeadSlot(p)
	need := len(payload)
	if !reuse {
		slot = n
		need += slotEntrySize
	}
	if p.contiguousFree() < need {
		p.compact()
	}
	if !reuse {
		p.setSlotCount(n + 1)
	}
	off := p.freeEnd() - uint16(len(payload))
	copy(p.data[off:], payload)
	p.setFreeEnd(off)
	p.setSlot(slot, off, uint16(len(payload)))
	return slot, true
}

func (h *linearHeap) insert(payload []byte) RID {
	if int(h.hint) < len(h.pages) {
		if slot, ok := linearPageInsert(h.pages[h.hint], payload); ok {
			return RID{Page: h.hint, Slot: slot}
		}
	}
	for _, p := range h.pages {
		if slot, ok := linearPageInsert(p, payload); ok {
			h.hint = p.id
			return RID{Page: p.id, Slot: slot}
		}
	}
	p := &Page{}
	p.init(PageID(len(h.pages)))
	h.pages = append(h.pages, p)
	slot, _ := linearPageInsert(p, payload)
	h.hint = p.id
	return RID{Page: p.id, Slot: slot}
}

func (h *linearHeap) update(rid RID, payload []byte) (RID, error) {
	p := h.pages[rid.Page]
	ok, err := p.updateInPlace(rid.Slot, payload)
	if err != nil || ok {
		return rid, err
	}
	if err := p.delete(rid.Slot); err != nil {
		return RID{}, err
	}
	return h.insert(payload), nil
}

// TestFirstFitMatchesLinearScan drives HeapFile and the linear-scan
// oracle through the same random inserts, deletes and updates: every RID,
// the page count and, at the end, every page's bytes must be equal, so the
// free-space index changed how the lowest fitting page is found and
// nothing about where rows land.
func TestFirstFitMatchesLinearScan(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := NewHeapFile(nil)
		ref := &linearHeap{}
		var live []RID
		for op := 0; op < 6000; op++ {
			switch r := rng.Intn(10); {
			case r < 5 || len(live) == 0:
				p := payloadOf(1+rng.Intn(400), byte(op))
				got, err := h.Insert(p)
				if err != nil {
					t.Fatal(err)
				}
				if want := ref.insert(p); got != want {
					t.Fatalf("seed %d op %d: insert placed at %v, linear scan at %v", seed, op, got, want)
				}
				live = append(live, got)
			case r < 8:
				i := rng.Intn(len(live))
				if err := h.Delete(live[i]); err != nil {
					t.Fatal(err)
				}
				if err := ref.pages[live[i].Page].delete(live[i].Slot); err != nil {
					t.Fatal(err)
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			default:
				i := rng.Intn(len(live))
				p := payloadOf(1+rng.Intn(600), byte(op))
				got, err := h.Update(live[i], p)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.update(live[i], p)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("seed %d op %d: update moved to %v, linear scan to %v", seed, op, got, want)
				}
				live[i] = got
			}
			if h.NumPages() != len(ref.pages) {
				t.Fatalf("seed %d op %d: %d pages, linear scan has %d", seed, op, h.NumPages(), len(ref.pages))
			}
			if op%500 == 0 {
				if err := h.CheckInvariants(); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
			}
		}
		for i, p := range h.pages {
			if !bytes.Equal(p.data[:], ref.pages[i].data[:]) {
				t.Fatalf("seed %d: page %d differs from the linear scan's", seed, i)
			}
		}
		if err := h.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFreeSpaceFirst checks the index against a linear search over random
// rooms, across the growth of its leaf capacity.
func TestFreeSpaceFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var f freeSpace
	var rooms []int
	if got := f.first(0); got != -1 {
		t.Fatalf("empty index found page %d", got)
	}
	for n := 0; n < 300; n++ {
		if rng.Intn(3) == 0 || len(rooms) == 0 {
			rooms = append(rooms, rng.Intn(100)-4)
			f.set(len(rooms)-1, rooms[len(rooms)-1])
		} else {
			i := rng.Intn(len(rooms))
			rooms[i] = rng.Intn(100) - 4
			f.set(i, rooms[i])
		}
		for size := -5; size <= 100; size += 7 {
			want := -1
			for i, r := range rooms {
				if r >= size {
					want = i
					break
				}
			}
			if got := f.first(size); got != want {
				t.Fatalf("rooms %v: first(%d) = %d, want %d", rooms, size, got, want)
			}
		}
	}
}
