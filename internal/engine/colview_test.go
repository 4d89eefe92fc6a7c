package engine

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"dyndesign/internal/sql"
	"dyndesign/internal/types"
)

// intsBytes encodes values as the byte input of FuzzIntColumn.
func intsBytes(vals ...int64) []byte {
	var b []byte
	for _, v := range vals {
		b = binary.BigEndian.AppendUint64(b, uint64(v))
	}
	return b
}

// FuzzIntColumn: for arbitrary int values (eight bytes each) and a range
// or IN conjunct, a packed column stores the narrowest width that holds
// max − min and gives back every value, and narrow keeps exactly the
// positions whose plain value holdsInt accepts — over all positions, and
// over every other position as a later conjunct sees them. The seeds sit
// on the width boundaries: spans of 0xFFFF and 0x10000, 2³²−1 and 2³², and
// MinInt64 beside MaxInt64; and on bucket edges, where values and
// literals sit at k·2^shift − 1 and k·2^shift, so that a bucket bitmap
// that dropped a value's bucket, or read a literal into the wrong one,
// would lose a match. Every value's bucket must be set, with the least
// shift that maps max − min into bucketBits buckets.
func FuzzIntColumn(f *testing.F) {
	f.Add(intsBytes(3, 0xFFFF+3, 70, 3), uint8(0), int64(70), int64(0))
	f.Add(intsBytes(-5, 0x10000-5, 0, 12), uint8(4), int64(0), int64(0))
	f.Add(intsBytes(9, 9+math.MaxUint32, 1<<31, 10), uint8(3), int64(1<<31), int64(0))
	f.Add(intsBytes(-1, math.MaxUint32, 7, -1), uint8(2), int64(-1), int64(0))
	f.Add(intsBytes(math.MinInt64, math.MaxInt64, 0, -1, 1), uint8(5), int64(math.MaxInt64), int64(math.MinInt64))
	f.Add(intsBytes(math.MinInt64, math.MaxInt64, 0), uint8(1), int64(math.MinInt64), int64(0))
	f.Add(intsBytes(4, 4, 4), uint8(0), int64(4), int64(0))
	f.Add(intsBytes(1, 2, 3, 4, 5, 6), uint8(5), int64(2), int64(5))
	// Bucket edges: shift 1 (span 1 024), 6 (0xFFFF), 23 (2³²) and 54.
	f.Add(intsBytes(0, 1024, 2*7, 2*9-1), uint8(0), int64(2*7-1), int64(0))
	f.Add(intsBytes(0, 1024, 2*7, 2*9-1), uint8(0), int64(2*9-2), int64(0))
	f.Add(intsBytes(-100, -100+0xFFFF, -100+64*5), uint8(0), int64(-100+64*5-1), int64(0))
	f.Add(intsBytes(-100, -100+0xFFFF, -100+64*5), uint8(1), int64(-100+64*5), int64(0))
	f.Add(intsBytes(-100, -100+0xFFFF, -100+64*5-1), uint8(4), int64(-100+64*5), int64(0))
	f.Add(intsBytes(5, 5+1<<32, 5+3<<23-1, 5+3<<23), uint8(2), int64(5+3<<23-1), int64(0))
	f.Add(intsBytes(5, 5+1<<32, 5+3<<23), uint8(5), int64(5+3<<23-1), int64(5+4<<23))
	f.Add(intsBytes(math.MinInt64, math.MaxInt64, math.MinInt64+5<<54), uint8(0), int64(math.MinInt64+5<<54-1), int64(0))
	f.Add(intsBytes(math.MinInt64, math.MaxInt64, math.MinInt64+5<<54-1), uint8(3), int64(math.MinInt64+5<<54-1), int64(0))
	f.Fuzz(func(t *testing.T, data []byte, op uint8, x, y int64) {
		vals := make([]int64, 0, len(data)/8)
		for ; len(data) >= 8 && len(vals) < 4096; data = data[8:] {
			vals = append(vals, int64(binary.BigEndian.Uint64(data)))
		}
		if len(vals) == 0 {
			return
		}
		c := sql.Comparison{Column: "c", Op: sql.CompareOp(op % 6), Value: types.NewInt(x)}
		if c.Op == sql.OpIn {
			c.Value = types.Value{}
			for _, v := range []int64{x, y, x / 2} {
				c.Values = append(c.Values, types.NewInt(v))
			}
		}
		p, err := compileBytePred(c, 0, types.KindInt, false)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := slices.Min(vals), slices.Max(vals)
		col := packInts(vals, lo, hi)
		span := uint64(hi) - uint64(lo)
		if col.min != lo || col.max != hi {
			t.Fatalf("min %d max %d, want %d %d", col.min, col.max, lo, hi)
		}
		if span>>col.shift >= bucketBits || col.shift > 0 && span>>(col.shift-1) < bucketBits {
			t.Fatalf("span %#x bucketed with shift %d", span, col.shift)
		}
		switch {
		case span <= math.MaxUint16 && len(col.u16) != len(vals),
			span > math.MaxUint16 && span <= math.MaxUint32 && len(col.u32) != len(vals),
			span > math.MaxUint32 && len(col.u64) != len(vals):
			t.Fatalf("span %#x packed as %d/%d/%d values of 16/32/64 bits", span, len(col.u16), len(col.u32), len(col.u64))
		}
		var want, wantOdd, odd []uint16
		for i, v := range vals {
			if got := col.at(uint16(i)); got != v {
				t.Fatalf("value %d reads back as %d, was %d", i, got, v)
			}
			if b := (uint64(v) - uint64(lo)) >> col.shift; col.buckets[b/64]&(1<<(b%64)) == 0 {
				t.Fatalf("value %d's bucket %d is not set", v, b)
			}
			if i%2 == 1 {
				odd = append(odd, uint16(i))
			}
			if p.holdsInt(v) {
				want = append(want, uint16(i))
				if i%2 == 1 {
					wantOdd = append(wantOdd, uint16(i))
				}
			}
		}
		if got := col.narrow(&p, nil, true); !slices.Equal(got, want) {
			t.Fatalf("%s over %v: kept %v, want %v", c, vals, got, want)
		}
		if got := col.narrow(&p, odd, false); !slices.Equal(got, wantOdd) {
			t.Fatalf("%s over the odd positions of %v: kept %v, want %v", c, vals, got, wantOdd)
		}
	})
}

// TestIntColumnBitmap: over spans from 0 to MinInt64…MaxInt64 (shift 0
// to 54), a column's bitmap holds exactly the buckets of its values; a
// range inside [min, max] whose buckets are all empty returns no
// candidates, and reach rules it out, while a range or a literal that
// touches a set bucket is tested exactly, value by value.
func TestIntColumnBitmap(t *testing.T) {
	for _, tc := range []struct {
		lo    int64
		span  uint64
		shift uint8
	}{
		{7, 0, 0},
		{-500, 1023, 0},
		{-500, 1024, 1},
		{3, 0xFFFF, 6},
		{-1 << 40, 1 << 32, 23},
		{math.MinInt64, math.MaxUint64, 54},
	} {
		at := func(off uint64) int64 { return int64(uint64(tc.lo) + off) }
		// mid starts a bucket about a third of the way in: values at 0,
		// mid (twice) and span, every other bucket empty.
		mid := tc.span / 3 >> tc.shift << tc.shift
		vals := []int64{at(0), at(mid), at(tc.span), at(mid)}
		col := packInts(vals, at(0), at(tc.span))
		if col.shift != tc.shift {
			t.Fatalf("span %#x: shift %d, want %d", tc.span, col.shift, tc.shift)
		}
		var want [bucketBits / 64]uint64
		for _, off := range []uint64{0, mid, tc.span} {
			want[off>>tc.shift/64] |= 1 << (off >> tc.shift % 64)
		}
		if col.buckets != want {
			t.Fatalf("span %#x: buckets %x, want %x", tc.span, col.buckets, want)
		}
		check := func(what string, a, b uint64, reach bool) {
			t.Helper()
			p := bytePred{kind: types.KindInt, lo: at(a), hi: at(b)}
			var cand []uint16
			for i, v := range vals {
				if p.holdsInt(v) {
					cand = append(cand, uint16(i))
				}
			}
			if _, _, ok := col.reach(&p); ok != reach {
				t.Fatalf("span %#x, %s [%d, %d]: reach %v, want %v", tc.span, what, a, b, ok, reach)
			}
			if got := col.narrow(&p, nil, true); !slices.Equal(got, cand) {
				t.Fatalf("span %#x, %s [%d, %d]: kept %v, want %v", tc.span, what, a, b, got, cand)
			}
			if got := col.narrow(&p, []uint16{0, 1, 2, 3}, false); !slices.Equal(got, cand) {
				t.Fatalf("span %#x, %s [%d, %d] over every position: kept %v, want %v", tc.span, what, a, b, got, cand)
			}
		}
		check("every value", 0, tc.span, true)
		check("mid", mid, mid, true)
		one := uint64(1) << tc.shift
		if mid >= 2*one { // buckets 1 … mid's − 1 are empty
			check("empty buckets", one, mid-1, false)
			check("one empty bucket", mid-1, mid-1, false)
			check("past min", 1, mid-1, tc.shift > 0) // offset 1 shares min's bucket only for shift > 0
			check("into mid's bucket", one, mid, true)
		}
		if last := tc.span >> tc.shift << tc.shift; last >= mid+2*one { // empty after mid's bucket
			check("empty buckets after mid", mid+one, last-1, false)
			check("into max's bucket", mid+one, last, true)
		}
		if tc.shift > 0 { // mid + 1 shares mid's bucket and no value holds it
			check("beside mid", mid+1, mid+1, true)
			check("rest of mid's bucket", mid+1, mid+one-1, true)
		}
	}
}
