package engine

import (
	"math"
	"math/bits"
	"slices"

	"dyndesign/internal/keyenc"
	"dyndesign/internal/storage"
	"dyndesign/internal/types"
)

// Column views: a full scan keeps, in each heap page's and each B+-tree
// leaf's derived-data slot (storage.Page.View, the leaf's slot handed
// over by index.ScanLeaves), the INT columns its conjuncts read, one
// vector per column, built on first use. Between mutations the same
// pages and leaves are scanned again and again, and a later scan tests
// its conjuncts with one tight loop over 2–8 bytes per value instead of
// walking each row's bytes — or with no loop at all, where a column's
// min and max or its bucket bitmap shows that no row can match. The page
// or the tree empties the slot on every mutation, so a view always
// describes the rows it sits beside; the engine keeps no other record of
// it.
//
// A view serves a scan when every conjunct is an INT predicate: on a
// column of the heap row, or on an INT key part at a fixed offset. A page
// with a payload RowLayout.Locate rejects, or a column (key part) that
// holds a non-INT value in some row (key), gets no view for it; the row
// loop (scanPage, keyScan.leaf) runs there and reports what it always
// reported, and the mark stays until the page or leaf changes.

// intColumn is one INT column of a page or leaf, frame-of-reference
// packed: each value is stored as its unsigned offset from the column's
// min, in the narrowest of uint16, uint32 and uint64 that holds
// max − min — in u16, u32 or u64, one value per row in order; the other
// two are nil. (Three typed fields, not one interface, so that building
// a column allocates its values and nothing else.)
//
// buckets is a bitmap over the offsets: bit o >> shift is set for every
// stored offset o, and shift is the least that maps max − min into
// bucketBits buckets. A conjunct whose range touches only empty buckets
// skips the page or leaf without a loop, though its range lies inside
// [min, max].
type intColumn struct {
	min, max int64
	shift    uint8
	buckets  [bucketBits / 64]uint64
	u16      []uint16
	u32      []uint32
	u64      []uint64
}

// bucketBits is the size of a column's bucket bitmap, 128 bytes per
// built column. DESIGN §6 has the measurement that chose it over 2 048.
const bucketBits = 1024

// packInts returns the packed column of vals, whose least and greatest
// values are lo and hi.
func packInts(vals []int64, lo, hi int64) intColumn {
	span := uint64(hi) - uint64(lo)
	c := intColumn{min: lo, max: hi, shift: uint8(max(0, bits.Len64(span)-bits.Len64(bucketBits-1)))}
	switch {
	case span <= math.MaxUint16:
		c.u16 = packAs[uint16](vals, lo, &c)
	case span <= math.MaxUint32:
		c.u32 = packAs[uint32](vals, lo, &c)
	default:
		c.u64 = packAs[uint64](vals, lo, &c)
	}
	return c
}

// packAs returns the offsets of vals from lo as T and sets their buckets
// in c.
func packAs[T uint16 | uint32 | uint64](vals []int64, lo int64, c *intColumn) []T {
	out := make([]T, len(vals))
	for i, x := range vals {
		off := uint64(x) - uint64(lo)
		out[i] = T(off)
		b := off >> c.shift
		c.buckets[b/64] |= 1 << (b % 64)
	}
	return out
}

// reach returns conjunct p's range on the column as offsets, a = lo − min
// and b = hi − lo, or ok false when no stored value can satisfy p: the
// range misses [min, max], or every bucket it touches is empty.
func (c *intColumn) reach(p *bytePred) (a, b uint64, ok bool) {
	lo, hi := max(p.lo, c.min), min(p.hi, c.max)
	if lo > hi {
		return 0, 0, false
	}
	a, b = uint64(lo)-uint64(c.min), uint64(hi)-uint64(lo)
	first, last := a>>c.shift, (a+b)>>c.shift
	for w := first / 64; w <= last/64; w++ {
		m := c.buckets[w]
		if w == first/64 {
			m &= ^uint64(0) << (first % 64)
		}
		if w == last/64 {
			m &= ^uint64(0) >> (63 - last%64)
		}
		if m != 0 {
			return a, b, true
		}
	}
	return 0, 0, false
}

// narrow tests conjunct p on the column. With first set it returns, in
// cand's storage, the positions of every value that satisfies p;
// otherwise it keeps those of the positions in cand. A conjunct that
// reach rules out keeps nothing, without a loop; an IN list is tested by
// its range, then exactly on each survivor.
func (c *intColumn) narrow(p *bytePred, cand []uint16, first bool) []uint16 {
	a, b, ok := c.reach(p)
	if !ok {
		return cand[:0]
	}
	switch {
	case c.u16 != nil:
		cand = narrowRange(c.u16, uint16(a), uint16(b), cand, first)
	case c.u32 != nil:
		cand = narrowRange(c.u32, uint32(a), uint32(b), cand, first)
	default:
		cand = narrowRange(c.u64, a, b, cand, first)
	}
	if !p.in {
		return cand
	}
	out := cand[:0]
	for _, i := range cand {
		if p.inInts(c.at(i)) {
			out = append(out, i)
		}
	}
	return out
}

// at returns the value at position i.
func (c *intColumn) at(i uint16) int64 {
	var off uint64
	switch {
	case c.u16 != nil:
		off = uint64(c.u16[i])
	case c.u32 != nil:
		off = uint64(c.u32[i])
	default:
		off = c.u64[i]
	}
	return int64(uint64(c.min) + off)
}

// narrowRange is narrow's loop: x holds when x − a ≤ b, unsigned, which
// is lo ≤ min + x ≤ hi for a = lo − min and b = hi − lo.
func narrowRange[T uint16 | uint32 | uint64](vals []T, a, b T, cand []uint16, first bool) []uint16 {
	if first {
		cand = cand[:0]
		for i, x := range vals {
			if x-a <= b {
				cand = append(cand, uint16(i))
			}
		}
		return cand
	}
	out := cand[:0]
	for _, i := range cand {
		if vals[i]-a <= b {
			out = append(out, i)
		}
	}
	return out
}

// colView is what a full scan keeps in a page's or a leaf's slot.
type colView struct {
	n int // live rows on the page, entries in the leaf
	// slots holds a page's live slots in order; nil when they are 0…n−1,
	// and on a leaf.
	slots []uint16
	// cols holds the columns (key parts) built so far, in the order
	// scans first read them.
	cols []viewCol
	// rejected marks a page with a payload Locate rejects: no conjunct is
	// served there until the page changes.
	rejected bool
}

// viewCol is one column (key part) of a view: its position in the row
// (key) and its values, unless a row (key) holds no INT value there.
type viewCol struct {
	pos    int
	notInt bool
	intColumn
}

// col returns the view's column at pos, or nil when none is built.
func (v *colView) col(pos int) *viewCol {
	for i := range v.cols {
		if v.cols[i].pos == pos {
			return &v.cols[i]
		}
	}
	return nil
}

// slot returns the page slot of row i.
func (v *colView) slot(i int) int {
	if v.slots == nil {
		return i
	}
	return int(v.slots[i])
}

// serves reports whether the view can serve conjuncts on cols now, and,
// when it cannot, collects the columns it has not built yet into
// missing: an empty missing list means a column holds non-INT values.
func (v *colView) serves(cols []colRef, missing []colRef) (bool, []colRef) {
	missing = missing[:0]
	for _, c := range cols {
		switch col := v.col(c.pos); {
		case col == nil:
			missing = append(missing, c)
		case col.notInt:
			return false, missing[:0]
		}
	}
	return len(missing) == 0, missing
}

// colRef is a column a filter's conjuncts read: its position in the row
// or key and, in a key, the fixed byte offset of its INT part.
type colRef struct{ pos, off int }

// viewScratch is the reusable memory of one scan: the candidate positions and the buffers a build decodes
// through, so that building a view allocates only the view itself.
type viewScratch struct {
	cand    []uint16
	vals    []int64
	missing []colRef
	notInt  []bool
	lo, hi  []int64 // each missing column's least and greatest value
}

// grow sizes the decode buffers for rows values of each missing column.
func (s *viewScratch) grow(rows int) {
	if need := rows * len(s.missing); cap(s.vals) < need {
		s.vals = make([]int64, need)
	}
	s.vals = s.vals[:cap(s.vals)]
	s.notInt = append(s.notInt[:0], make([]bool, len(s.missing))...)
	s.lo, s.hi = s.lo[:0], s.hi[:0]
	for range s.missing {
		s.lo, s.hi = append(s.lo, math.MaxInt64), append(s.hi, math.MinInt64)
	}
}

// add appends the missing columns, decoded into the first v.n of every
// rows values, to v.
func (s *viewScratch) add(v *colView, rows int) {
	if v.cols == nil {
		v.cols = make([]viewCol, 0, len(s.missing))
	}
	for j, c := range s.missing {
		col := viewCol{pos: c.pos, notInt: s.notInt[j]}
		if !col.notInt && v.n > 0 {
			col.intColumn = packInts(s.vals[j*rows:j*rows+v.n], s.lo[j], s.hi[j])
		}
		v.cols = append(v.cols, col)
	}
}

// match leaves in s.cand the positions of v's rows that satisfy every
// predicate in preds, in order; each later predicate is tested only on
// the positions left by those before it.
func (s *viewScratch) match(v *colView, preds []bytePred) {
	cand := s.cand[:0]
	for i := range preds {
		p := &preds[i]
		if cand = v.col(p.pos).narrow(p, cand, i == 0); len(cand) == 0 {
			break
		}
	}
	s.cand = cand
}

// pageView returns p's view with every column the filter's conjuncts read
// built, building what is missing, or nil when it cannot serve them. The
// build reads each live row's payload once, through RowLayout.Locate.
func (f *rowFilter) pageView(p *storage.Page) *colView {
	s := &f.scratch
	slot := p.View()
	v, _ := (*slot).(*colView)
	fresh := v == nil
	rows := p.Slots()
	if fresh {
		v = &colView{}
		*slot = v
		s.missing = append(s.missing[:0], f.viewCols...)
	} else {
		if v.rejected {
			return nil
		}
		var ok bool
		if ok, s.missing = v.serves(f.viewCols, s.missing); ok {
			return v
		} else if len(s.missing) == 0 {
			return nil
		}
		rows = v.n
	}
	s.grow(rows)
	k := 0
	for i := range rows {
		payload, live := p.Live(v.slot(i)) // slot i itself on a fresh view
		if !live {
			continue
		}
		offs, err := f.layout.Locate(payload)
		if err != nil {
			*v = colView{rejected: true}
			return nil
		}
		for j, c := range s.missing {
			if c.pos >= len(offs) || types.Kind(payload[offs[c.pos]]) != types.KindInt {
				s.notInt[j] = true
				continue
			}
			x := types.IntAt(payload, offs[c.pos])
			s.vals[j*rows+k] = x
			s.lo[j], s.hi[j] = min(s.lo[j], x), max(s.hi[j], x)
		}
		k++
	}
	if fresh {
		v.n = k
		if k < rows { // dead slots: record the live ones
			v.slots = make([]uint16, 0, k)
			for i := range rows {
				if _, live := p.Live(i); live {
					v.slots = append(v.slots, uint16(i))
				}
			}
		}
	}
	s.add(v, rows)
	if slices.Contains(s.notInt, true) {
		return nil
	}
	return v
}

// scanView is scanPage over p's view: it keeps every row whose values
// satisfy the conjuncts, in slot order.
func (f *rowFilter) scanView(p *storage.Page, v *colView, part *scanPart) bool {
	f.scratch.match(v, f.preds)
	for _, i := range f.scratch.cand {
		slot := v.slot(int(i))
		payload, _ := p.Live(slot)
		if !f.keep(storage.RID{Page: p.ID(), Slot: uint16(slot)}, payload, nil, part) {
			return false
		}
	}
	return true
}

// leafView returns the view in a leaf's slot with every key part the
// filter's conjuncts read built, building what is missing, or nil when a
// key holds no INT value at one of those parts.
func (s *keyScan) leafView(keys [][]byte, slot *any) *colView {
	sc := &s.scratch
	v, _ := (*slot).(*colView)
	if v == nil {
		v = &colView{n: len(keys)}
		*slot = v
		sc.missing = append(sc.missing[:0], s.viewCols...)
	} else {
		var ok bool
		if ok, sc.missing = v.serves(s.viewCols, sc.missing); ok {
			return v
		} else if len(sc.missing) == 0 {
			return nil
		}
	}
	sc.grow(v.n)
	for j, c := range sc.missing {
		vals := sc.vals[j*v.n : (j+1)*v.n]
		lo, hi := sc.lo[j], sc.hi[j]
		for k, key := range keys {
			x, ok := keyenc.IntAt(key, c.off)
			if !ok {
				sc.notInt[j] = true
				break
			}
			vals[k] = x
			lo, hi = min(lo, x), max(hi, x)
		}
		sc.lo[j], sc.hi[j] = lo, hi
	}
	sc.add(v, v.n)
	if slices.Contains(sc.notInt, true) {
		return nil
	}
	return v
}
