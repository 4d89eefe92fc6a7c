package index

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"dyndesign/internal/btree"
	"dyndesign/internal/catalog"
	"dyndesign/internal/keyenc"
	"dyndesign/internal/storage"
	"dyndesign/internal/types"
)

// referenceBuild is the oracle of TestBuildMatchesReference: the online
// build as a decode-encode-sort pipeline — DecodeRow, keyenc.Encode of the
// key columns, sort.Slice by (key bytes, RID), BulkLoad, and the external
// sort's charge of two reads and two writes per leaf.
func referenceBuild(t *testing.T, cols []int, heap *storage.HeapFile) *btree.Tree {
	t.Helper()
	var entries []btree.Entry
	heap.Scan(func(rid storage.RID, payload []byte) bool {
		row, err := types.DecodeRow(payload)
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]types.Value, len(cols))
		for i, c := range cols {
			vals[i] = row[c]
		}
		entries = append(entries, btree.Entry{Key: keyenc.MustEncode(vals...), RID: rid})
		return true
	})
	sort.Slice(entries, func(i, j int) bool {
		if c := bytes.Compare(entries[i].Key, entries[j].Key); c != 0 {
			return c < 0
		}
		return entries[i].RID.Compare(entries[j].RID) < 0
	})
	tree := btree.New(heap.Stats())
	if err := tree.BulkLoad(entries); err != nil {
		t.Fatal(err)
	}
	heap.Stats().Read(2 * tree.LeafCount())
	heap.Stats().Write(2 * tree.LeafCount())
	return tree
}

// TestBuildMatchesReference: Build yields the reference's (key, RID)
// sequence, tree shape and page charges on duplicate keys, two-column
// keys, negative ints and string keys with embedded 0x00 bytes and
// shared prefixes, and the result passes CheckInvariants.
func TestBuildMatchesReference(t *testing.T) {
	schema := testSchema()
	strs := []string{"", "x", "x\x00", "x\x00y", "xy", "\x00", "\x00\x00", "y\xff"}
	var stats storage.AccessStats
	heap := storage.NewHeapFile(&stats)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 6000; i++ {
		row := types.Row{
			types.NewInt(rng.Int63n(101) - 50),
			types.NewInt(int64(rng.Intn(10))),
			types.NewString(strs[rng.Intn(len(strs))]),
		}
		payload, err := types.EncodeRow(nil, row)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := heap.Insert(payload); err != nil {
			t.Fatal(err)
		}
	}
	for _, cols := range [][]string{{"b"}, {"a"}, {"a", "b"}, {"s"}, {"b", "s"}, {"s", "a"}} {
		def := catalog.IndexDef{Table: "t", Columns: cols}
		before := stats.Snapshot()
		ix, err := Build(def, schema, heap)
		if err != nil {
			t.Fatal(err)
		}
		got := stats.Snapshot().Sub(before)
		before = stats.Snapshot()
		ref := referenceBuild(t, ix.cols, heap)
		if want := stats.Snapshot().Sub(before); got != want {
			t.Errorf("%s: build charged %+v, reference %+v", def.Name(), got, want)
		}
		if ix.LeafPages() != ref.LeafCount() || ix.SizePages() != ref.NodeCount() || ix.Height() != ref.Height() {
			t.Errorf("%s: tree of %d leaves, %d nodes, height %d; reference %d, %d, %d", def.Name(),
				ix.LeafPages(), ix.SizePages(), ix.Height(), ref.LeafCount(), ref.NodeCount(), ref.Height())
		}
		var want []btree.Entry
		ref.ScanRange(nil, nil, func(k []byte, rid storage.RID) bool {
			want = append(want, btree.Entry{Key: k, RID: rid})
			return true
		})
		i := 0
		ix.ScanKeys(nil, nil, func(k []byte, rid storage.RID) bool {
			if i >= len(want) || !bytes.Equal(k, want[i].Key) || rid != want[i].RID {
				t.Fatalf("%s: entry %d is (% x, %v), reference has %v", def.Name(), i, k, rid, want[i:min(i+1, len(want))])
			}
			i++
			return true
		})
		if i != len(want) {
			t.Errorf("%s: %d entries, reference %d", def.Name(), i, len(want))
		}
		if err := ix.CheckInvariants(); err != nil {
			t.Errorf("%s: %v", def.Name(), err)
		}
	}
}

// TestCompareKeysIsBytesCompare: the build's sort comparison is
// bytes.Compare, on keys shorter and longer than a whole INT part.
func TestCompareKeysIsBytesCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	key := func() []byte {
		b := make([]byte, rng.Intn(20))
		for i := range b {
			b[i] = byte(rng.Intn(3)) // few symbols: long shared prefixes
		}
		return b
	}
	for i := 0; i < 20000; i++ {
		a, b := key(), key()
		if rng.Intn(4) == 0 {
			b = append(append([]byte(nil), a...), b...)
		}
		if got, want := compareKeys(a, b), bytes.Compare(a, b); got != want {
			t.Fatalf("compareKeys(% x, % x) = %d, bytes.Compare %d", a, b, got, want)
		}
	}
}
