package index

import (
	"bytes"
	"fmt"
	"math"
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

// intSchema is the schema of the packed-path tables: four INT columns.
func intSchema() *types.Schema {
	return types.MustSchema(
		types.Column{Name: "a", Kind: types.KindInt},
		types.Column{Name: "b", Kind: types.KindInt},
		types.Column{Name: "c", Kind: types.KindInt},
		types.Column{Name: "d", Kind: types.KindInt},
	)
}

// leafEntries returns ix's entries leaf by leaf, in key order.
func leafEntries(ix *Index) [][]btree.Entry {
	var out [][]btree.Entry
	ix.ScanLeaves(func(keys [][]byte, rids []storage.RID, _ *any) bool {
		leaf := make([]btree.Entry, len(keys))
		for i := range keys {
			leaf[i] = btree.Entry{Key: keys[i], RID: rids[i]}
		}
		out = append(out, leaf)
		return true
	})
	return out
}

// TestBuildPackedMatchesKeys: a build on the packed path (INT parts
// packed into words, radix-sorted, written into the leaves in place)
// gives the tree and the charges of the same build on the Keys.Order
// path — every leaf's keys and RIDs, so the leaf fill, the node and
// leaf counts, the height and every charged page — and reports the
// path it took. The tables: random INT tables of random widths;
// negative values; one column spanning MinInt64…MaxInt64 (64 bits,
// packs); two parts of exactly 64 bits in all (packs) and of 65 (falls
// back); one key everywhere (no sort pass); no row and one row; few
// distinct keys, whose duplicates keep heap RID order; an INT column
// holding a STRING in some rows (falls back mid-scan); and a heap whose
// rows were deleted and moved. A fallback reuses what the scan
// collected: a second scan would show in the charges.
func TestBuildPackedMatchesKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ints := func(vals ...int64) types.Row {
		row := make(types.Row, len(vals))
		for i, v := range vals {
			row[i] = types.NewInt(v)
		}
		return row
	}
	// span returns a value of a range of the given width in bits that
	// starts at lo, the range's ends for the first rows.
	span := func(i int, lo int64, bits uint) int64 {
		hi := lo + int64(uint64(1)<<bits-1)
		switch {
		case i == 0:
			return lo
		case i == 1:
			return hi
		default:
			return lo + int64(rng.Uint64()>>(64-bits))
		}
	}
	all := [][]string{{"a"}, {"b"}, {"a", "b"}, {"b", "a"}, {"a", "b", "c"}, {"d", "c", "b", "a"}}
	type table struct {
		name   string
		rows   int
		row    func(i int) types.Row
		cols   [][]string
		packed func(cols []string) bool // whether the key on cols packs
		mess   bool
	}
	yes := func([]string) bool { return true }
	no := func([]string) bool { return false }
	tables := []table{
		{"negative", 5000, func(int) types.Row {
			return ints(rng.Int63n(2001)-1000, rng.Int63n(21)-10, -rng.Int63n(1<<20), rng.Int63n(3)-1)
		}, all, yes, false},
		{"full int64", 3000, func(i int) types.Row {
			v := []int64{math.MinInt64, math.MaxInt64}[i%2]
			if i > 1 {
				v = rng.Int63() - rng.Int63()
			}
			return ints(v, 0, 0, 0)
		}, [][]string{{"a"}}, yes, false},
		{"64 bits", 4000, func(i int) types.Row {
			return ints(span(i, -1<<31, 32), span(i, 7, 32), 0, 0)
		}, [][]string{{"a", "b"}, {"b", "a"}}, yes, false},
		{"65 bits", 4000, func(i int) types.Row {
			return ints(span(i, -1<<31, 33), span(i, 7, 32), 0, 0)
		}, [][]string{{"a", "b"}, {"b", "a"}}, no, false},
		{"one key", 3000, func(int) types.Row { return ints(-7, -7, -7, -7) }, all, yes, false},
		{"no row", 0, nil, all, yes, false},
		{"one row", 1, func(int) types.Row { return ints(-3, 4, -5, 6) }, all, yes, false},
		{"duplicates", 8000, func(int) types.Row {
			return ints(rng.Int63n(3), rng.Int63n(2), rng.Int63n(5)-2, 0)
		}, all, yes, false},
		{"string in an INT column", 3000, func(i int) types.Row {
			row := ints(rng.Int63n(100), rng.Int63n(100), 0, 0)
			if i%250 == 100 {
				row[1] = types.NewString("not an int")
			}
			return row
		}, [][]string{{"a", "b"}, {"b"}}, no, false},
		{"mess", 6000, func(int) types.Row {
			return ints(rng.Int63n(101)-50, rng.Int63n(10), rng.Int63n(1<<40), 0)
		}, all, yes, true},
	}
	for seed := range 6 {
		widths := map[string]uint{}
		for _, c := range []string{"a", "b", "c", "d"} {
			widths[c] = uint(rng.Intn(41))
		}
		widths[[]string{"a", "b", "c", "d"}[seed%4]] = 0 // one column holds one value
		tables = append(tables, table{fmt.Sprintf("random %v", widths), 2000 + rng.Intn(20000), func(i int) types.Row {
			var vals [4]int64
			for c, name := range []string{"a", "b", "c", "d"} {
				vals[c] = span(i, -int64(widths[name])*1000, widths[name])
			}
			return ints(vals[:]...)
		}, all, func(cols []string) bool {
			sum := uint(0)
			for _, c := range cols {
				sum += widths[c]
			}
			return sum <= 64
		}, seed%2 == 1})
	}
	for _, tc := range tables {
		var stats storage.AccessStats
		heap := storage.NewHeapFile(&stats)
		var rids []storage.RID
		for i := range tc.rows {
			payload, err := types.EncodeRow(nil, tc.row(i))
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
			// Delete every third row, then move every fifth remaining
			// one by widening it with a fifth column.
			for i := 0; i < len(rids); i += 3 {
				if err := heap.Delete(rids[i]); err != nil {
					t.Fatal(err)
				}
			}
			for i := 1; i < len(rids); i += 5 {
				if i%3 == 0 {
					continue
				}
				payload, err := types.EncodeRow(nil, append(tc.row(i), types.NewInt(int64(i))))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := heap.Update(rids[i], payload); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, cols := range tc.cols {
			def := catalog.IndexDef{Table: "t", Columns: cols}
			before := stats.Snapshot()
			got, packed, err := build(def, intSchema(), heap, true)
			if err != nil {
				t.Fatal(err)
			}
			gotCharge := stats.Snapshot().Sub(before)
			before = stats.Snapshot()
			want, _, err := build(def, intSchema(), heap, false)
			if err != nil {
				t.Fatal(err)
			}
			wantCharge := stats.Snapshot().Sub(before)
			name := tc.name + " " + def.Name()
			if packed != tc.packed(cols) {
				t.Errorf("%s: packed path %v, want %v", name, packed, tc.packed(cols))
			}
			if gotCharge != wantCharge {
				t.Errorf("%s: charged %+v, Keys path %+v", name, gotCharge, wantCharge)
			}
			if got.LeafPages() != want.LeafPages() || got.SizePages() != want.SizePages() || got.Height() != want.Height() {
				t.Errorf("%s: %d leaves, %d nodes, height %d; Keys path %d, %d, %d", name,
					got.LeafPages(), got.SizePages(), got.Height(), want.LeafPages(), want.SizePages(), want.Height())
			}
			gotLeaves, wantLeaves := leafEntries(got), leafEntries(want)
			if len(gotLeaves) != len(wantLeaves) {
				t.Fatalf("%s: %d leaves scanned, Keys path %d", name, len(gotLeaves), len(wantLeaves))
			}
			entries := 0
			for l := range gotLeaves {
				if len(gotLeaves[l]) != len(wantLeaves[l]) {
					t.Fatalf("%s: leaf %d holds %d entries, Keys path %d", name, l, len(gotLeaves[l]), len(wantLeaves[l]))
				}
				for e, g := range gotLeaves[l] {
					if w := wantLeaves[l][e]; !bytes.Equal(g.Key, w.Key) || g.RID != w.RID {
						t.Fatalf("%s: leaf %d entry %d is (% x, %v), Keys path (% x, %v)", name, l, e, g.Key, g.RID, w.Key, w.RID)
					}
				}
				entries += len(gotLeaves[l])
			}
			if int64(entries) != heap.NumRows() {
				t.Errorf("%s: %d entries, heap %d rows", name, entries, heap.NumRows())
			}
			if err := got.CheckInvariants(); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
}
