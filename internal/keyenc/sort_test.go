package keyenc

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
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
