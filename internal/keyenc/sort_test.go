package keyenc

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dyndesign/internal/types"
)

// stableOrder is the oracle of the sorter's tests: the positions of keys
// sorted by slices.SortStableFunc with bytes.Compare.
func stableOrder(keys [][]byte) []int32 {
	order := make([]int32, len(keys))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int { return bytes.Compare(keys[a], keys[b]) })
	return order
}

// checkSortOrder fails unless Keys.Order's permutation of keys is the
// oracle's.
func checkSortOrder(t *testing.T, keys [][]byte) {
	t.Helper()
	var ks Keys
	for _, k := range keys {
		ks.Bytes = append(ks.Bytes, k...)
		ks.End()
	}
	for i, k := range keys {
		if !bytes.Equal(ks.Key(i), k) {
			t.Fatalf("Key(%d) = % x, want % x", i, ks.Key(i), k)
		}
	}
	got, want := ks.Order(), stableOrder(keys)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%d keys: position %d holds key %d (% x), SortStableFunc has key %d (% x)",
				len(keys), i, got[i], keys[got[i]], want[i], keys[want[i]])
		}
	}
}

// TestSortOrderMatchesStableSort: Keys.Order's permutation equals a
// stable comparison sort's on keys that agree on every prefix byte, on
// none, on all but one, on keys shorter than the prefix that differ only
// in length, and on long keys sharing their prefix.
func TestSortOrderMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	random := func(n, maxLen, symbols int) [][]byte {
		keys := make([][]byte, n)
		for i := range keys {
			keys[i] = make([]byte, rng.Intn(maxLen+1))
			for j := range keys[i] {
				keys[i][j] = byte(rng.Intn(symbols))
			}
		}
		return keys
	}
	same := make([][]byte, 500)
	for i := range same {
		same[i] = []byte("identical key, longer than the prefix")
	}
	var oneByte [][]byte
	for i := range 300 {
		oneByte = append(oneByte, []byte{1, 2, 3, 4, 5, 6, 7, byte(i % 7), 9})
	}
	var short [][]byte
	for i := range 200 {
		short = append(short, bytes.Repeat([]byte{0}, i%12)) // pad bytes and real zeros
	}
	var shared [][]byte
	for i := range 400 {
		shared = append(shared, append(bytes.Repeat([]byte("p"), 40), byte(rng.Intn(3)), byte(i%5)))
	}
	for _, keys := range [][][]byte{
		nil, {{}}, {{}, {0}, {}}, same, oneByte, short, shared,
		random(1000, 20, 3), random(1000, 12, 256), random(5000, 9, 2),
	} {
		checkSortOrder(t, keys)
	}
}

// FuzzSortKeys: on arbitrary byte keys Keys.Order's permutation equals
// slices.SortStableFunc with bytes.Compare. The input is cut into keys,
// each a length byte (mod 24) and that many bytes, so keys differ at any
// position, first byte included, and are shorter or longer than the
// prefix.
func FuzzSortKeys(f *testing.F) {
	f.Add([]byte{3, 1, 2, 3, 3, 1, 2, 3, 0, 9, 1, 0, 0, 0, 0, 0, 0, 0, 7})
	f.Add([]byte{1, 0xFF, 1, 0x00, 2, 0x00, 0x00, 0, 0})
	f.Add(bytes.Repeat([]byte{12, 2, 'a', 'b', 0, 0xFF, 'c', 0, 0, 1, 1, 1, 1}, 8))
	f.Fuzz(func(t *testing.T, data []byte) {
		var keys [][]byte
		for len(data) > 0 {
			n := min(int(data[0])%24, len(data)-1)
			keys = append(keys, data[1:1+n])
			data = data[1+n:]
		}
		checkSortOrder(t, keys)
	})
}

// checkSortWords fails unless SortWords sorts recs, whose Val is each
// record's position, as slices.SortStableFunc by Key does.
func checkSortWords(t *testing.T, recs []Word[int], keyBits int) {
	t.Helper()
	want := slices.Clone(recs)
	slices.SortStableFunc(want, func(a, b Word[int]) int { return cmp.Compare(a.Key, b.Key) })
	got := SortWords(slices.Clone(recs), keyBits)
	if len(got) != len(want) {
		t.Fatalf("%d records sorted into %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%d records of %d bits: position %d holds %+v, SortStableFunc has %+v", len(recs), keyBits, i, got[i], want[i])
		}
	}
}

// TestSortWordsMatchesStableSort: SortWords equals a stable comparison
// sort on keys of 0 to 64 bits, with one digit pass and several, on
// digits every key shares (skipped), on many duplicates, and at sizes
// that take 8- to 16-bit digits.
func TestSortWordsMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	records := func(n, keyBits int, distinct uint64) []Word[int] {
		recs := make([]Word[int], n)
		for i := range recs {
			k := rng.Uint64()
			if distinct > 0 {
				k = (k % distinct) * 0x9E3779B97F4A7C15
			}
			if keyBits < 64 {
				k &= 1<<keyBits - 1
			}
			recs[i] = Word[int]{Key: k, Val: i}
		}
		return recs
	}
	for _, n := range []int{0, 1, 2, 255, 1000, 70000} {
		for _, keyBits := range []int{0, 1, 8, 13, 19, 33, 38, 63, 64} {
			checkSortWords(t, records(n, keyBits, 0), keyBits)
			checkSortWords(t, records(n, keyBits, 5), keyBits)
		}
	}
	// Every key agrees on all but the top bit, and on all but the lowest.
	top := make([]Word[int], 5000)
	low := make([]Word[int], 5000)
	for i := range top {
		top[i] = Word[int]{Key: uint64(rng.Intn(2))<<63 | 0x1234, Val: i}
		low[i] = Word[int]{Key: 0xABCD<<40 | uint64(rng.Intn(2)), Val: i}
	}
	checkSortWords(t, top, 64)
	checkSortWords(t, low, 64)
}

// FuzzSortWords: on arbitrary records SortWords equals
// slices.SortStableFunc by Key. The first input byte picks the key
// width (mod 65), the rest is cut into 8-byte keys, masked to the width.
func FuzzSortWords(f *testing.F) {
	f.Add([]byte{64, 1, 2, 3, 4, 5, 6, 7, 8, 8, 7, 6, 5, 4, 3, 2, 1})
	f.Add([]byte{9, 0xFF, 1, 0, 0, 0, 0, 0, 0, 0xFF, 1, 0, 0, 0, 0, 0, 0})
	f.Add(append([]byte{17}, bytes.Repeat([]byte{0, 0, 0, 0, 0, 1, 2, 3}, 40)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		keyBits := int(data[0]) % 65
		var recs []Word[int]
		for data = data[1:]; len(data) >= 8; data = data[8:] {
			k := binary.BigEndian.Uint64(data)
			if keyBits < 64 {
				k &= 1<<keyBits - 1
			}
			recs = append(recs, Word[int]{Key: k, Val: len(recs)})
		}
		checkSortWords(t, recs, keyBits)
	})
}

// TestPackingOrder: words packed from random INT keys of one to four
// parts compare as the encoded keys do, and AppendKey writes the
// encoded key back; the parts' widths pack up to 64 bits in all and
// not one bit more.
func TestPackingOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := range 200 {
		parts := 1 + trial%4
		mins, maxs := make([]int64, parts), make([]int64, parts)
		for p := range parts {
			mins[p] = rng.Int63() - rng.Int63()
			maxs[p] = mins[p] + rng.Int63n(1<<uint(rng.Intn(20)))
		}
		pk, ok := NewPacking(mins, maxs)
		if !ok {
			t.Fatalf("%d parts of at most 20 bits do not pack", parts)
		}
		keys := make([][]byte, 50)
		words := make([]uint64, 50)
		for i := range keys {
			var vals []types.Value
			for p := range parts {
				v := mins[p] + rng.Int63n(maxs[p]-mins[p]+1)
				vals = append(vals, types.NewInt(v))
				words[i] |= pk.Field(p, v)
			}
			keys[i] = MustEncode(vals...)
			if words[i]>>pk.Bits() != 0 && pk.Bits() < 64 {
				t.Fatalf("word %x has bits above %d", words[i], pk.Bits())
			}
			if got := pk.AppendKey(nil, words[i]); !bytes.Equal(got, keys[i]) {
				t.Fatalf("AppendKey gives % x, Encode % x", got, keys[i])
			}
		}
		for i := range keys {
			for j := range keys {
				if c := bytes.Compare(keys[i], keys[j]); c != cmp.Compare(words[i], words[j]) {
					t.Fatalf("keys % x, % x compare %d; their words %x, %x do not", keys[i], keys[j], c, words[i], words[j])
				}
			}
		}
	}
	full := []int64{math.MinInt64}
	if pk, ok := NewPacking(full, []int64{math.MaxInt64}); !ok || pk.Bits() != 64 ||
		!bytes.Equal(pk.AppendKey(nil, pk.Field(0, math.MaxInt64)), MustEncode(types.NewInt(math.MaxInt64))) {
		t.Errorf("the whole int64 range does not pack into 64 bits")
	}
	if pk, ok := NewPacking([]int64{0, 0}, []int64{1<<32 - 1, 1<<32 - 1}); !ok || pk.Bits() != 64 {
		t.Errorf("two 32-bit parts do not pack into 64 bits")
	}
	if _, ok := NewPacking([]int64{0, 0}, []int64{1<<33 - 1, 1<<32 - 1}); ok {
		t.Errorf("33 and 32 bits pack")
	}
	if pk, ok := NewPacking([]int64{5}, []int64{5}); !ok || pk.Bits() != 0 {
		t.Errorf("one value takes %d bits", pk.Bits())
	}
}
