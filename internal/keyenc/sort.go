package keyenc

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"slices"
)

// prefixLen is the width of the radix prefix Keys.Order sorts on: two
// whole INT parts. Every one- and two-column INT key is ordered by the
// radix passes alone, and the prefix still fits a 24-byte radix key
// beside the key's position. With one part, two-column index builds ran
// about twice as slow per row as one-column builds, most of it in the
// comparison sorts of runs sharing the first part; with two they run
// about 1.3× as slow (DESIGN.md §6).
const prefixLen = 2 * IntLen

// radixKey is one key's sort key: its first prefixLen bytes, zero-padded,
// as two big-endian words and a big-endian tail, its length (capped),
// and its position among the keys.
type radixKey struct {
	hi, lo uint64 // prefix bytes 0–7 and 8–15
	pos    uint32
	tail   uint16 // prefix bytes 16–17
	// size is the key's length, or prefixLen+1 for any longer key: keys
	// with the same prefix and the same size ≤ prefixLen are equal.
	size uint8
}

// digit returns byte d of k's prefix.
func (k *radixKey) digit(d int) uint8 {
	switch {
	case d < 8:
		return uint8(k.hi >> (8 * (7 - d)))
	case d < 16:
		return uint8(k.lo >> (8 * (15 - d)))
	default:
		return uint8(k.tail >> (8 * (17 - d)))
	}
}

// samePrefix reports whether a and b have the same padded prefix.
func samePrefix(a, b *radixKey) bool { return a.hi == b.hi && a.lo == b.lo && a.tail == b.tail }

// Keys is a sequence of keys stored back to back in one byte slice. A
// key is added by appending its parts to Bytes (AppendValue,
// AppendRowValue) and then calling End.
type Keys struct {
	Bytes []byte
	ends  []int // ends[i] is where key i ends
}

// MakeKeys returns an empty sequence with room for n keys of size bytes
// in all.
func MakeKeys(n, size int) Keys {
	return Keys{Bytes: make([]byte, 0, size), ends: make([]int, 0, n)}
}

// End ends the key whose parts were appended to Bytes since the last End.
func (k *Keys) End() { k.ends = append(k.ends, len(k.Bytes)) }

// Len returns the number of keys.
func (k *Keys) Len() int { return len(k.ends) }

// Key returns key i. It aliases Bytes, capacity-capped so that an append
// to it cannot overwrite the next key.
func (k *Keys) Key(i int) []byte {
	start := 0
	if i > 0 {
		start = k.ends[i-1]
	}
	return k.Bytes[start:k.ends[i]:k.ends[i]]
}

// Order returns the permutation that sorts the keys stably in
// bytes.Compare order: Key(order[0]) ≤ Key(order[1]) ≤ …, and equal keys
// keep their positions' order.
//
// It is a stable LSD radix sort on each key's first prefixLen bytes,
// zero-padded, one pass per byte position that not all keys agree on.
// Keys that share a prefix are then either equal, when all of them fit
// the prefix with the same length, or put in order by a stable
// comparison sort of that run alone. Besides the result, Order holds two
// arrays of 24-byte radix keys, one per key, while it runs.
func (k *Keys) Order() []int32 {
	n := k.Len()
	src := make([]radixKey, n)
	var counts [prefixLen][256]uint32
	for i := range src {
		key := k.Key(i)
		var pad [prefixLen]byte
		head := key
		if len(key) < prefixLen {
			copy(pad[:], key)
			head = pad[:]
		}
		r := &src[i]
		r.hi = binary.BigEndian.Uint64(head)
		r.lo = binary.BigEndian.Uint64(head[8:])
		r.tail = binary.BigEndian.Uint16(head[16:])
		r.pos, r.size = uint32(i), uint8(min(len(key), prefixLen+1))
		for d := range prefixLen {
			counts[d][head[d]]++
		}
	}
	dst := make([]radixKey, n)
	for d := prefixLen - 1; d >= 0; d-- {
		c := &counts[d]
		if n == 0 || int(c[src[0].digit(d)]) == n {
			continue // every key has the same byte here
		}
		var next [256]uint32
		for b, sum := 0, uint32(0); b < 256; b++ {
			next[b], sum = sum, sum+c[b]
		}
		for i := range src {
			b := src[i].digit(d)
			dst[next[b]] = src[i]
			next[b]++
		}
		src, dst = dst, src
	}
	for i := 0; i < n; {
		j := i + 1
		exact := src[i].size <= prefixLen
		for j < n && samePrefix(&src[i], &src[j]) {
			exact = exact && src[j].size == src[i].size
			j++
		}
		if j-i > 1 && !exact {
			slices.SortStableFunc(src[i:j], func(a, b radixKey) int {
				return bytes.Compare(k.Key(int(a.pos)), k.Key(int(b.pos)))
			})
		}
		i = j
	}
	order := make([]int32, n)
	for i := range src {
		order[i] = int32(src[i].pos)
	}
	return order
}

// Packing maps keys whose parts are all INT onto single words, so that
// word order is key order: part p is stored as its offset from the
// least value of that part, in just enough bits for the part's range,
// the first part in the highest bits. Keyenc's INT parts are fixed-width
// and order-preserving, so comparing words compares the encoded keys.
type Packing struct {
	mins   []int64
	shifts []uint8
	masks  []uint64
	bits   int
}

// NewPacking returns the packing of keys whose part p lies in
// [mins[p], maxs[p]], each part taking ⌈log₂(maxs[p] − mins[p] + 1)⌉
// bits, and false when the widths sum to more than 64 bits.
func NewPacking(mins, maxs []int64) (Packing, bool) {
	pk := Packing{mins: mins, shifts: make([]uint8, len(mins)), masks: make([]uint64, len(mins))}
	for p := len(mins) - 1; p >= 0; p-- {
		width := bits.Len64(uint64(maxs[p]) - uint64(mins[p]))
		if pk.bits+width > 64 {
			return Packing{}, false
		}
		pk.shifts[p], pk.masks[p] = uint8(pk.bits), uint64(1)<<width-1
		pk.bits += width
	}
	return pk, true
}

// Bits returns the number of low bits a packed word may use.
func (pk *Packing) Bits() int { return pk.bits }

// Field returns the bits that part p of value v sets in a key's word;
// a key's word is the OR of its parts' fields. v must lie within the
// part's range.
func (pk *Packing) Field(p int, v int64) uint64 {
	return (uint64(v) - uint64(pk.mins[p])) << pk.shifts[p]
}

// Part returns part p of the key packed as w.
func (pk *Packing) Part(w uint64, p int) int64 {
	return pk.mins[p] + int64(w>>pk.shifts[p]&pk.masks[p])
}

// AppendKey appends the encoding of the key packed as w to dst: the
// bytes Encode gives for its parts, IntLen per part.
func (pk *Packing) AppendKey(dst []byte, w uint64) []byte {
	for p := range pk.mins {
		dst = AppendInt(dst, pk.Part(w, p))
	}
	return dst
}

// Word is one record of SortWords: a packed key and the value that rides
// with it (an index build's RID; nothing for ANALYZE).
type Word[V any] struct {
	Key uint64
	Val V
}

// maxDigit is the widest digit SortWords sorts on. Wider digits mean
// fewer passes but larger histograms: at 100k and 250k records of 30 and
// 38 bits, 16-bit digits sorted 10–35 % faster than 11-bit ones.
const maxDigit = 16

// SortWords sorts recs stably by Key and returns them sorted, either in
// recs or in a second array of the same length that it allocates. Every
// key must be below 1<<keyBits; a Packing's words are below 1<<Bits().
//
// It is an LSD radix sort. The digit is as wide as a pass may be
// (maxDigit bits, and no wider than the count of records needs) and the
// bits are split evenly among the fewest passes. One counting pass
// builds every digit's histogram; a digit on which all keys agree is
// skipped, so equal keys take no pass at all. Nothing is kept between
// calls.
func SortWords[V any](recs []Word[V], keyBits int) []Word[V] {
	n := len(recs)
	if n < 2 || keyBits == 0 {
		return recs
	}
	width := min(maxDigit, max(8, bits.Len(uint(n))))
	passes := (keyBits + width - 1) / width
	width = (keyBits + passes - 1) / passes
	mask := uint64(1)<<width - 1
	counts := make([]uint32, passes<<width)
	for _, r := range recs {
		for d := range passes {
			counts[d<<width+int(r.Key>>(d*width)&mask)]++
		}
	}
	var dst []Word[V]
	for d := range passes {
		shift := d * width
		c := counts[d<<width : (d+1)<<width]
		if int(c[recs[0].Key>>shift&mask]) == n {
			continue // every key has the same digit here
		}
		for b, sum := 0, uint32(0); b < len(c); b++ {
			c[b], sum = sum, sum+c[b]
		}
		if dst == nil {
			dst = make([]Word[V], n)
		}
		for _, r := range recs {
			b := r.Key >> shift & mask
			dst[c[b]] = r
			c[b]++
		}
		recs, dst = dst, recs
	}
	return recs
}
