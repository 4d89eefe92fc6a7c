package index

import (
	"bytes"
	"math/rand"
	"sort"
	"strings"
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
// shared prefixes, and the result passes CheckInvariants. Further heaps
// take the radix sorter to its edges: more than 65 536 distinct values
// (three or more radix passes), one value everywhere (every pass
// skipped), keys shorter than the radix prefix (the empty string is 3
// bytes), leading-STRING keys with long shared prefixes (long runs the
// comparison sort finishes), and a heap whose rows were deleted and
// moved, so RIDs are not in insertion order.
func TestBuildMatchesReference(t *testing.T) {
	strs := []string{"", "x", "x\x00", "x\x00y", "xy", "\x00", "\x00\x00", "y\xff"}
	rng := rand.New(rand.NewSource(5))
	mixed := func() types.Row {
		return types.Row{
			types.NewInt(rng.Int63n(101) - 50),
			types.NewInt(int64(rng.Intn(10))),
			types.NewString(strs[rng.Intn(len(strs))]),
		}
	}
	wide := func() types.Row { // > 65 536 distinct values in a and b
		return types.Row{types.NewInt(rng.Int63() - rng.Int63()), types.NewInt(rng.Int63n(1 << 20)), types.NewString("")}
	}
	same := func() types.Row {
		return types.Row{types.NewInt(-7), types.NewInt(-7), types.NewString("same string, longer than the prefix")}
	}
	shared := strings.Repeat("long shared prefix ", 4)
	prefixed := func() types.Row {
		return types.Row{
			types.NewInt(int64(rng.Intn(3))),
			types.NewInt(rng.Int63n(1000) - 500),
			types.NewString(shared + strs[rng.Intn(len(strs))] + strs[rng.Intn(len(strs))]),
		}
	}
	all := [][]string{{"b"}, {"a"}, {"a", "b"}, {"s"}, {"b", "s"}, {"s", "a"}}
	for _, tc := range []struct {
		name string
		rows int
		row  func() types.Row
		cols [][]string
		mess bool // delete and move rows after loading
	}{
		{"mixed", 6000, mixed, all, false},
		{"wide", 70000, wide, [][]string{{"a"}, {"b"}, {"b", "a"}}, false},
		{"same", 3000, same, all, false},
		{"prefixed", 6000, prefixed, [][]string{{"s"}, {"s", "a"}, {"a", "s"}, {"s", "b"}}, false},
		{"messy", 6000, mixed, all, true},
	} {
		var stats storage.AccessStats
		heap := storage.NewHeapFile(&stats)
		var rids []storage.RID
		for i := 0; i < tc.rows; i++ {
			payload, err := types.EncodeRow(nil, tc.row())
			if err != nil {
				t.Fatal(err)
			}
			rid, err := heap.Insert(payload)
			if err != nil {
				t.Fatal(err)
			}
			rids = append(rids, rid)
		}
		if tc.mess {
			// Delete every third row, then grow every fifth remaining one
			// so it moves into a hole an earlier delete left.
			for i := 0; i < len(rids); i += 3 {
				if err := heap.Delete(rids[i]); err != nil {
					t.Fatal(err)
				}
			}
			for i := 1; i < len(rids); i += 5 {
				if i%3 == 0 {
					continue
				}
				row := mixed()
				row[2] = types.NewString(strings.Repeat("moved", 4))
				payload, err := types.EncodeRow(nil, row)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := heap.Update(rids[i], payload); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, cols := range tc.cols {
			checkBuildMatchesReference(t, tc.name, catalog.IndexDef{Table: "t", Columns: cols}, heap, &stats)
		}
	}
}

// checkBuildMatchesReference builds def over heap and compares it with
// referenceBuild's tree: entries, shape and charges.
func checkBuildMatchesReference(t *testing.T, name string, def catalog.IndexDef, heap *storage.HeapFile, stats *storage.AccessStats) {
	t.Helper()
	before := stats.Snapshot()
	ix, err := Build(def, testSchema(), heap)
	if err != nil {
		t.Fatal(err)
	}
	got := stats.Snapshot().Sub(before)
	before = stats.Snapshot()
	ref := referenceBuild(t, ix.cols, heap)
	if want := stats.Snapshot().Sub(before); got != want {
		t.Errorf("%s %s: build charged %+v, reference %+v", name, def.Name(), got, want)
	}
	if ix.LeafPages() != ref.LeafCount() || ix.SizePages() != ref.NodeCount() || ix.Height() != ref.Height() {
		t.Errorf("%s %s: tree of %d leaves, %d nodes, height %d; reference %d, %d, %d", name, def.Name(),
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
			t.Fatalf("%s %s: entry %d is (% x, %v), reference has %v", name, def.Name(), i, k, rid, want[i:min(i+1, len(want))])
		}
		i++
		return true
	})
	if i != len(want) || int64(i) != heap.NumRows() {
		t.Errorf("%s %s: %d entries, reference %d, heap %d rows", name, def.Name(), i, len(want), heap.NumRows())
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Errorf("%s %s: %v", name, def.Name(), err)
	}
}
