package storage

import (
	"fmt"
	"sync"
)

// HeapFile is an unordered collection of rows stored in slotted pages.
// It is the physical representation of a table; secondary indexes refer
// into it by RID.
//
// All methods charge logical page accesses to the file's AccessStats.
// HeapFile is safe for concurrent use by multiple goroutines.
type HeapFile struct {
	mu    sync.RWMutex
	pages []*Page
	stats *AccessStats
	rows  int64
	// insertHint is the page most likely to have free space; inserts try
	// it first and fall back to the free-space index, so the common
	// append workload is O(1) per insert.
	insertHint PageID
	// free holds every page's room, kept current by each page mutation.
	free freeSpace
}

// NewHeapFile creates an empty heap file charging accesses to stats.
// A nil stats is allowed and disables counting.
func NewHeapFile(stats *AccessStats) *HeapFile {
	return &HeapFile{stats: stats}
}

// NumPages returns the number of allocated pages.
func (h *HeapFile) NumPages() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.pages)
}

// NumRows returns the number of live rows.
func (h *HeapFile) NumRows() int64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.rows
}

// Stats returns the access counter shared by this file.
func (h *HeapFile) Stats() *AccessStats { return h.stats }

func (h *HeapFile) newPage() *Page {
	p := &Page{}
	p.init(PageID(len(h.pages)))
	h.pages = append(h.pages, p)
	h.touch(p)
	return p
}

// touch records p's room in the free-space index after a mutation.
func (h *HeapFile) touch(p *Page) { h.free.set(int(p.id), p.room()) }

func (h *HeapFile) page(id PageID) (*Page, error) {
	if int(id) >= len(h.pages) {
		return nil, fmt.Errorf("storage: heap has no page %d", id)
	}
	return h.pages[id], nil
}

// Insert stores payload and returns its RID. Payloads larger than
// MaxPayload are rejected; the engine's rows are always far smaller.
func (h *HeapFile) Insert(payload []byte) (RID, error) {
	if len(payload) > MaxPayload {
		return RID{}, fmt.Errorf("storage: payload of %d bytes exceeds page capacity %d", len(payload), MaxPayload)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.insertLocked(payload)
}

// insertLocked is Insert under h.mu.
func (h *HeapFile) insertLocked(payload []byte) (RID, error) {
	// Fast path: the hinted page.
	if int(h.insertHint) < len(h.pages) {
		if rid, ok := h.insertInto(h.pages[h.insertHint], payload); ok {
			return rid, nil
		}
	}
	// Slow path: the lowest-id page with room (keeps pages dense after
	// deletions), else a new page.
	var p *Page
	if i := h.free.first(len(payload)); i >= 0 {
		p = h.pages[i]
	} else {
		p = h.newPage()
	}
	rid, ok := h.insertInto(p, payload)
	if !ok {
		return RID{}, fmt.Errorf("storage: payload of %d bytes does not fit a fresh page", len(payload))
	}
	h.insertHint = p.id
	return rid, nil
}

// insertInto stores payload on p, charging one page write.
func (h *HeapFile) insertInto(p *Page, payload []byte) (RID, bool) {
	slot, ok := p.insert(payload)
	if !ok {
		return RID{}, false
	}
	h.touch(p)
	h.stats.Write(1)
	h.rows++
	return RID{Page: p.id, Slot: slot}, true
}

// Get returns a copy of the payload stored at rid, charging one page
// read.
func (h *HeapFile) Get(rid RID) ([]byte, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	p, err := h.page(rid.Page)
	if err != nil {
		return nil, err
	}
	h.stats.Read(1)
	payload, err := p.payload(rid.Slot)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(payload))
	copy(out, payload)
	return out, nil
}

// Delete removes the row at rid, charging one page write.
func (h *HeapFile) Delete(rid RID) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	p, err := h.page(rid.Page)
	if err != nil {
		return err
	}
	if err := p.delete(rid.Slot); err != nil {
		return err
	}
	h.touch(p)
	h.stats.Write(1)
	h.rows--
	return nil
}

// Update replaces the payload at rid. If the new payload fits in place
// the RID is unchanged; otherwise the row moves and the new RID is
// returned — callers (the index manager) must then update index entries.
// A move deletes and re-inserts under one critical section, so NumRows
// never sees the row gone.
func (h *HeapFile) Update(rid RID, payload []byte) (RID, error) {
	if len(payload) > MaxPayload {
		return RID{}, fmt.Errorf("storage: payload of %d bytes exceeds page capacity %d", len(payload), MaxPayload)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	p, err := h.page(rid.Page)
	if err != nil {
		return RID{}, err
	}
	ok, err := p.updateInPlace(rid.Slot, payload)
	if err != nil {
		return RID{}, err
	}
	if ok {
		h.touch(p)
		h.stats.Write(1)
		return rid, nil
	}
	if err := p.delete(rid.Slot); err != nil {
		return RID{}, err
	}
	h.touch(p)
	h.stats.Write(1)
	h.rows--
	return h.insertLocked(payload)
}

// Scan calls fn for every live row in RID order — strictly ascending
// RIDs, page by page and slot by slot, whatever deletes, moves and
// compactions came before — charging one read per page visited.
// Scanning stops early if fn returns false. The payload slice passed to
// fn aliases page memory and must not be retained. It is ScanPages with
// fn called for each of a page's live slots.
func (h *HeapFile) Scan(fn func(rid RID, payload []byte) bool) {
	h.ScanPages(func(p *Page) bool {
		for i := range p.Slots() {
			if payload, live := p.Live(i); live && !fn(RID{Page: p.id, Slot: uint16(i)}, payload) {
				return false
			}
		}
		return true
	})
}

// ScanPages calls fn for every page in order, on the caller, under the
// heap's read lock; fn reads the page's live slots itself (Page.Slots,
// Page.Live) and ends the scan by returning false. It charges what Scan
// charges: one read per page up to the page where the scan ended.
func (h *HeapFile) ScanPages(fn func(p *Page) bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	var visited int64
	for _, p := range h.pages {
		visited++
		if !fn(p) {
			break
		}
	}
	h.stats.Read(visited)
}

// CheckInvariants verifies internal consistency: the live-row count
// matches the per-page slot accounting and every live payload is
// reachable through Get. It is used by tests and returns the first
// violation found.
func (h *HeapFile) CheckInvariants() error {
	h.mu.RLock()
	defer h.mu.RUnlock()
	var live int64
	for _, p := range h.pages {
		live += int64(p.liveCount())
		if dead := int(p.slotCount()) - p.liveCount(); dead != int(p.dead) {
			return fmt.Errorf("storage: page %d has %d dead slots, counted %d", p.id, dead, p.dead)
		}
		if h.free.room(int(p.id)) != p.room() {
			return fmt.Errorf("storage: free-space index holds room %d for page %d, which has %d",
				h.free.room(int(p.id)), p.id, p.room())
		}
		if int(p.freeEnd()) < pageHeaderSize+int(p.slotCount())*slotEntrySize {
			return fmt.Errorf("storage: page %d slot directory overlaps payload region", p.id)
		}
		var payloadBytes int
		for i := range p.Slots() {
			payload, _ := p.Live(i)
			payloadBytes += len(payload)
		}
		used := PageSize - int(p.freeEnd())
		if payloadBytes+int(p.garbage()) > used {
			return fmt.Errorf("storage: page %d accounting mismatch: %d live + %d garbage > %d used",
				p.id, payloadBytes, p.garbage(), used)
		}
	}
	if live != h.rows {
		return fmt.Errorf("storage: heap row count %d != live slots %d", h.rows, live)
	}
	return nil
}
