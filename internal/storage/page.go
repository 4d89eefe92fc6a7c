// Package storage implements the lowest layer of the engine: fixed-size
// slotted pages, heap files built from them, and the access-statistics
// counter that every component charges for logical page reads and writes.
//
// The engine is in-memory, but it is paged exactly the way an on-disk
// engine is, and every page touched is counted. Logical page accesses are
// the repository's unit of execution cost: the planner estimates them,
// and experiment runs measure them, so advisor estimates and "measured"
// workload costs are directly comparable (see DESIGN.md §6).
package storage

import (
	"encoding/binary"
	"fmt"
)

// PageSize is the size of every page in bytes. 8 KiB matches the default
// page size of the commercial systems the paper's experiments ran on.
const PageSize = 8192

// PageID identifies a page within one heap file.
type PageID uint32

// RID is a row identifier: the page holding the row and the slot within
// that page. Secondary indexes store RIDs as their payloads.
type RID struct {
	Page PageID
	Slot uint16
}

// String renders the RID as "page:slot".
func (r RID) String() string { return fmt.Sprintf("%d:%d", r.Page, r.Slot) }

// Compare orders RIDs by page, then slot. Indexes append the RID to
// duplicate keys to keep entries unique, so RID order must be total.
func (r RID) Compare(o RID) int {
	switch {
	case r.Page < o.Page:
		return -1
	case r.Page > o.Page:
		return 1
	case r.Slot < o.Slot:
		return -1
	case r.Slot > o.Slot:
		return 1
	default:
		return 0
	}
}

// Slotted page layout (all offsets within the page's data array):
//
//	[0:2]   uint16 slot count (including dead slots)
//	[2:4]   uint16 freeEnd — start of the payload region, grows downward
//	[4:6]   uint16 garbage — payload bytes owned by dead slots
//	[6:]    slot directory, 4 bytes per slot: uint16 offset, uint16 length
//	...     free space ...
//	[freeEnd:PageSize] payloads, most recent first
//
// A dead slot has length == deadLen. Dead slots keep later slot numbers
// (and therefore RIDs) stable; their payload bytes are reclaimed lazily
// by compaction when an insert would otherwise fail.

const (
	pageHeaderSize = 6
	slotEntrySize  = 4
	deadLen        = 0xFFFF
	// MaxPayload is the largest payload a single page can store: the
	// whole payload region minus one slot directory entry.
	MaxPayload = PageSize - pageHeaderSize - slotEntrySize
)

// Page is one slotted page. The zero value is not usable; pages are
// created by a HeapFile.
type Page struct {
	id   PageID
	dead uint16 // dead slots in the directory
	view any    // see View
	data [PageSize]byte
}

// ID returns the page's identifier within its heap file.
func (p *Page) ID() PageID { return p.id }

// View returns the page's derived-data slot: whatever a scan derives from
// the page's live rows and keeps for the next scan of the same page. The
// page never reads the slot, and every mutation of the page (insert,
// compaction included, delete and updateInPlace) empties it, so what the
// slot holds always describes the rows the page holds now.
//
// The slot is not synchronized. Only the ScanPages callback writes it,
// on the caller, under the heap's read lock, and the caller keeps two
// scans of one heap from running at once (the engine holds its database
// lock across every statement).
func (p *Page) View() *any { return &p.view }

func (p *Page) slotCount() uint16     { return binary.BigEndian.Uint16(p.data[0:2]) }
func (p *Page) freeEnd() uint16       { return binary.BigEndian.Uint16(p.data[2:4]) }
func (p *Page) garbage() uint16       { return binary.BigEndian.Uint16(p.data[4:6]) }
func (p *Page) setSlotCount(n uint16) { binary.BigEndian.PutUint16(p.data[0:2], n) }
func (p *Page) setFreeEnd(n uint16)   { binary.BigEndian.PutUint16(p.data[2:4], n) }
func (p *Page) setGarbage(n uint16)   { binary.BigEndian.PutUint16(p.data[4:6], n) }

func (p *Page) slot(i uint16) (offset, length uint16) {
	base := pageHeaderSize + int(i)*slotEntrySize
	return binary.BigEndian.Uint16(p.data[base : base+2]),
		binary.BigEndian.Uint16(p.data[base+2 : base+4])
}

func (p *Page) setSlot(i, offset, length uint16) {
	base := pageHeaderSize + int(i)*slotEntrySize
	binary.BigEndian.PutUint16(p.data[base:base+2], offset)
	binary.BigEndian.PutUint16(p.data[base+2:base+4], length)
}

func (p *Page) init(id PageID) {
	p.id = id
	p.dead = 0
	p.setSlotCount(0)
	p.setFreeEnd(PageSize)
	p.setGarbage(0)
}

// contiguousFree returns the bytes available between the end of the slot
// directory and freeEnd.
func (p *Page) contiguousFree() int {
	return int(p.freeEnd()) - pageHeaderSize - int(p.slotCount())*slotEntrySize
}

// room returns the largest payload the page can take, counting space
// that compaction would reclaim: a payload fits if and only if its size
// is at most room. Without a dead slot to reuse, the payload also needs
// a new directory entry.
func (p *Page) room() int {
	r := p.contiguousFree() + int(p.garbage())
	if p.dead == 0 {
		r -= slotEntrySize
	}
	return r
}

// insert stores the payload and returns its slot, or ok=false if the page
// cannot fit it even after compaction.
func (p *Page) insert(payload []byte) (slot uint16, ok bool) {
	if len(payload) > MaxPayload || len(payload) > p.room() {
		return 0, false
	}
	// Reuse the lowest dead slot if one exists; otherwise append to the
	// directory.
	n := p.slotCount()
	slot = n
	grow := p.dead == 0
	for i := uint16(0); !grow && i < n; i++ {
		if _, l := p.slot(i); l == deadLen {
			slot = i
			p.dead--
			break
		}
	}
	need := len(payload)
	if grow {
		need += slotEntrySize
	}
	if p.contiguousFree() < need {
		p.compact()
	}
	if grow {
		p.setSlotCount(n + 1)
	}
	p.view = nil
	off := p.freeEnd() - uint16(len(payload))
	copy(p.data[off:], payload)
	p.setFreeEnd(off)
	p.setSlot(slot, off, uint16(len(payload)))
	return slot, true
}

// payload returns the bytes of a live slot. The returned slice aliases
// the page; callers that retain it must copy.
func (p *Page) payload(slot uint16) ([]byte, error) {
	if slot >= p.slotCount() {
		return nil, fmt.Errorf("storage: page %d has no slot %d", p.id, slot)
	}
	off, l := p.slot(slot)
	if l == deadLen {
		return nil, fmt.Errorf("storage: page %d slot %d is deleted", p.id, slot)
	}
	return p.data[off : off+l], nil
}

// delete tombstones a slot, accounting its payload as garbage.
func (p *Page) delete(slot uint16) error {
	if slot >= p.slotCount() {
		return fmt.Errorf("storage: page %d has no slot %d", p.id, slot)
	}
	_, l := p.slot(slot)
	if l == deadLen {
		return fmt.Errorf("storage: page %d slot %d already deleted", p.id, slot)
	}
	p.setGarbage(p.garbage() + l)
	p.setSlot(slot, 0, deadLen)
	p.dead++
	p.view = nil
	return nil
}

// updateInPlace overwrites a slot's payload if the new payload is no
// larger than the old one; it reports whether it did so.
func (p *Page) updateInPlace(slot uint16, payload []byte) (bool, error) {
	if slot >= p.slotCount() {
		return false, fmt.Errorf("storage: page %d has no slot %d", p.id, slot)
	}
	off, l := p.slot(slot)
	if l == deadLen {
		return false, fmt.Errorf("storage: page %d slot %d is deleted", p.id, slot)
	}
	if len(payload) > int(l) {
		return false, nil
	}
	p.view = nil
	copy(p.data[off:], payload)
	if shrink := l - uint16(len(payload)); shrink > 0 {
		p.setGarbage(p.garbage() + shrink)
		p.setSlot(slot, off, uint16(len(payload)))
	}
	return true, nil
}

// compact rewrites all live payloads contiguously at the end of the page,
// reclaiming garbage. Slot numbers are preserved.
func (p *Page) compact() {
	var scratch [PageSize]byte
	writeEnd := uint16(PageSize)
	n := p.slotCount()
	type move struct {
		slot, off, length uint16
	}
	moves := make([]move, 0, n)
	for i := uint16(0); i < n; i++ {
		off, l := p.slot(i)
		if l == deadLen {
			continue
		}
		writeEnd -= l
		copy(scratch[writeEnd:], p.data[off:off+l])
		moves = append(moves, move{i, writeEnd, l})
	}
	copy(p.data[writeEnd:], scratch[writeEnd:])
	for _, m := range moves {
		p.setSlot(m.slot, m.off, m.length)
	}
	p.setFreeEnd(writeEnd)
	p.setGarbage(0)
	p.view = nil
}

// Slots returns the number of slots in the page's directory, dead ones
// included: every RID on the page has a Slot below it.
func (p *Page) Slots() int { return int(p.slotCount()) }

// Live returns the payload of slot i, which must be below Slots(), and
// whether the slot is live. The payload aliases the page and must not be
// modified or retained.
func (p *Page) Live(i int) ([]byte, bool) {
	off, l := p.slot(uint16(i))
	if l == deadLen {
		return nil, false
	}
	return p.data[off : off+l], true
}

// liveCount returns the number of live slots, counted in the directory.
func (p *Page) liveCount() int {
	c := 0
	for i := range p.Slots() {
		if _, live := p.Live(i); live {
			c++
		}
	}
	return c
}
