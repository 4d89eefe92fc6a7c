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
// MinInt64 beside MaxInt64.
func FuzzIntColumn(f *testing.F) {
	f.Add(intsBytes(3, 0xFFFF+3, 70, 3), uint8(0), int64(70), int64(0))
	f.Add(intsBytes(-5, 0x10000-5, 0, 12), uint8(4), int64(0), int64(0))
	f.Add(intsBytes(9, 9+math.MaxUint32, 1<<31, 10), uint8(3), int64(1<<31), int64(0))
	f.Add(intsBytes(-1, math.MaxUint32, 7, -1), uint8(2), int64(-1), int64(0))
	f.Add(intsBytes(math.MinInt64, math.MaxInt64, 0, -1, 1), uint8(5), int64(math.MaxInt64), int64(math.MinInt64))
	f.Add(intsBytes(math.MinInt64, math.MaxInt64, 0), uint8(1), int64(math.MinInt64), int64(0))
	f.Add(intsBytes(4, 4, 4), uint8(0), int64(4), int64(0))
	f.Add(intsBytes(1, 2, 3, 4, 5, 6), uint8(5), int64(2), int64(5))
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
