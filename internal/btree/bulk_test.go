package btree

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dyndesign/internal/keyenc"
	"dyndesign/internal/storage"
	"dyndesign/internal/types"
)

// sortedIntEntries returns n entries with strictly ascending int keys.
func sortedIntEntries(n int) []Entry {
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{Key: intKey(int64(3 * i)), RID: ridOf(i)}
	}
	return entries
}

// packedShape is the oracle of TestBulkLoadShape: the leaf count, node
// count and height of a bulk load that packs entries one key at a time,
// a leaf or branch closing when the next entry would pass the fill.
func packedShape(entries []Entry) (leaves, nodes int64, height int) {
	const fill = nodeBudget * 9 / 10
	var firsts [][]byte
	size := 0
	for i, e := range entries {
		sz := leafEntrySize(e.Key)
		if i == 0 || size+sz > fill {
			firsts = append(firsts, e.Key)
			size = 0
		}
		size += sz
	}
	if len(firsts) == 0 {
		firsts = [][]byte{nil}
	}
	leaves, nodes, height = int64(len(firsts)), int64(len(firsts)), 1
	for len(firsts) > 1 {
		var up [][]byte
		size := 0
		for i, k := range firsts {
			sz := branchEntrySize(k)
			if i == 0 || (size+sz > fill && size > 0) {
				up = append(up, k)
				size = 0
				continue
			}
			size += sz
		}
		nodes += int64(len(up))
		firsts = up
		height++
	}
	return leaves, nodes, height
}

// TestBulkLoadShape: per-leaf arenas leave the tree's shape and charges
// as per-key packing has them — leaf count, node count, height, and one
// write per node — for no entries, one, one full leaf, one full leaf and
// one more, and 100k.
func TestBulkLoadShape(t *testing.T) {
	full := (nodeBudget * 9 / 10) / leafEntrySize(intKey(0))
	for _, n := range []int{0, 1, full, full + 1, 100000} {
		entries := sortedIntEntries(n)
		var stats storage.AccessStats
		tr := New(&stats)
		before := stats.Snapshot()
		if err := tr.BulkLoad(entries); err != nil {
			t.Fatal(err)
		}
		charged := stats.Snapshot().Sub(before)
		leaves, nodes, height := packedShape(entries)
		if tr.LeafCount() != leaves || tr.NodeCount() != nodes || tr.Height() != height {
			t.Errorf("n=%d: %d leaves, %d nodes, height %d; per-key packing %d, %d, %d",
				n, tr.LeafCount(), tr.NodeCount(), tr.Height(), leaves, nodes, height)
		}
		if charged.Writes != nodes || charged.Reads != 0 {
			t.Errorf("n=%d: charged %+v, want %d writes", n, charged, nodes)
		}
		if n == full && leaves != 1 || n == full+1 && leaves != 2 {
			t.Errorf("n=%d: %d leaves around the first leaf's fill", n, leaves)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
}

// TestBulkLoadFixed: a load of fixed-length keys, whose leaves are cut
// by count, builds the tree BulkLoad builds from the same entries, and
// refuses a key of another length or an entry out of order — deep in a
// later leaf — with its position, leaving the tree untouched.
func TestBulkLoadFixed(t *testing.T) {
	const n = 20000
	entries := sortedIntEntries(n)
	load := func(tr *Tree, long int) error {
		return tr.BulkLoadFixed(n, len(intKey(0)), func(dst []byte, i int) ([]byte, storage.RID) {
			dst = append(dst, entries[i].Key...)
			if i == long {
				dst = append(dst, 0)
			}
			return dst, entries[i].RID
		})
	}
	fixed, want := New(nil), New(nil)
	if err := load(fixed, -1); err != nil {
		t.Fatal(err)
	}
	if err := want.BulkLoad(entries); err != nil {
		t.Fatal(err)
	}
	if fixed.NodeCount() != want.NodeCount() || fixed.LeafCount() != want.LeafCount() || fixed.Height() != want.Height() {
		t.Fatalf("fixed load: %d nodes, %d leaves, height %d; BulkLoad %d, %d, %d",
			fixed.NodeCount(), fixed.LeafCount(), fixed.Height(), want.NodeCount(), want.LeafCount(), want.Height())
	}
	got, exp := fixed.leaves(), want.leaves()
	for i := range got {
		if !slices.EqualFunc(got[i].keys, exp[i].keys, bytes.Equal) || !slices.Equal(got[i].rids, exp[i].rids) {
			t.Fatalf("leaf %d differs", i)
		}
	}

	tr := New(nil)
	if err := load(tr, 15000); err == nil || !strings.Contains(err.Error(), "key 15000 is 10 bytes, announced 9") {
		t.Errorf("a long key: error %v", err)
	}
	entries[17000] = entries[16999]
	if err := load(tr, -1); err == nil || !strings.Contains(err.Error(), "not strictly sorted at position 17000") {
		t.Errorf("a repeated entry: error %v", err)
	}
	if tr.Len() != 0 || tr.NodeCount() != 1 {
		t.Errorf("the failed loads left %d entries in %d nodes", tr.Len(), tr.NodeCount())
	}
}

// TestBulkLoadAllocsPerLeaf: a bulk load allocates a bounded number of
// times per leaf, not once per key.
func TestBulkLoadAllocsPerLeaf(t *testing.T) {
	entries := sortedIntEntries(100000)
	probe := New(nil)
	if err := probe.BulkLoad(entries); err != nil {
		t.Fatal(err)
	}
	leaves := float64(probe.LeafCount())
	allocs := testing.AllocsPerRun(5, func() {
		if err := New(nil).BulkLoad(entries); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 5*leaves+64 {
		t.Fatalf("%.0f allocations for %.0f leaves", allocs, leaves)
	}
}

// TestBulkLoadedLeavesSurviveStorms: after a bulk load the caller's key
// bytes are overwritten, then insert and delete storms split, borrow and
// merge the loaded leaves. Every surviving key still equals a deep copy
// taken before the load, and the tree keeps its invariants — the leaves'
// keys share one arena per leaf, and nothing writes into it. The storms
// run in steps of stormStep operations; before each, every leaf's
// derived-data slot gets a sentinel, and after it every leaf whose
// entries changed, new leaves included, has an empty slot, while every
// other leaf keeps its sentinel.
func TestBulkLoadedLeavesSurviveStorms(t *testing.T) {
	const stormStep = 50
	var tr *Tree
	sentinel := new(int)
	before := map[*leaf][]storage.RID{}
	mark := func() {
		clear(before)
		for _, l := range tr.leaves() {
			l.view, before[l] = sentinel, slices.Clone(l.rids)
		}
	}
	rng := rand.New(rand.NewSource(17))
	type entry struct {
		key string
		rid storage.RID
	}
	model := make(map[entry]bool)
	var entries []Entry
	for i := 0; i < 20000; i++ {
		key := keyenc.MustEncode(types.NewInt(int64(i/3)), types.NewString(string(rune('a'+i%3))))
		entries = append(entries, Entry{Key: key, RID: ridOf(i)})
		model[entry{string(key), ridOf(i)}] = true
	}
	tr = New(nil)
	if err := tr.BulkLoad(entries); err != nil {
		t.Fatal(err)
	}
	var changed, kept, split, merged int
	check := func(round int) {
		t.Helper()
		leaves := tr.leaves()
		for _, l := range leaves {
			rids, old := before[l]
			switch unchanged := old && slices.Equal(rids, l.rids); {
			case !unchanged && l.view != nil:
				t.Fatalf("round %d: a leaf whose entries changed (new: %v) kept its slot", round, !old)
			case unchanged && l.view != any(sentinel):
				t.Fatalf("round %d: an unchanged leaf's slot holds %v", round, l.view)
			case unchanged:
				kept++
			default:
				changed++
			}
		}
		split += max(0, len(leaves)-len(before))
		merged += max(0, len(before)-len(leaves))
		mark()
	}
	mark()
	for _, e := range entries {
		for i := range e.Key {
			e.Key[i] = 0xEE
		}
	}
	for round := 0; round < 6; round++ {
		// Delete a contiguous run of whole leaves' worth, so neighbours
		// borrow and merge, and scattered entries elsewhere. The first
		// run starts at the first leaf, which has no left sibling and
		// borrows from its right one.
		lo := rng.Intn(15000)
		if round == 0 {
			lo = 0
		}
		for i := lo; i < lo+2000; i++ {
			key := keyenc.MustEncode(types.NewInt(int64(i/3)), types.NewString(string(rune('a'+i%3))))
			if e := (entry{string(key), ridOf(i)}); model[e] {
				if found, err := tr.Delete(key, ridOf(i)); err != nil || !found {
					t.Fatalf("round %d: delete %d: %v %v", round, i, found, err)
				}
				delete(model, e)
			}
			if (i-lo)%stormStep == stormStep-1 {
				check(round)
			}
		}
		// Insert between loaded keys, so loaded leaves split.
		for j := 0; j < 3000; j++ {
			i := rng.Intn(20000)
			key := keyenc.MustEncode(types.NewInt(int64(i/3)), types.NewString(string(rune('a'+i%3))+"+"))
			rid := ridOf(20000 + round*3000 + j)
			if err := tr.Insert(key, rid); err != nil {
				t.Fatal(err)
			}
			model[entry{string(key), rid}] = true
			if j%stormStep == stormStep-1 {
				check(round)
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	n := 0
	var prev []byte
	for it := tr.First(); it.Valid(); it.Next() {
		if !model[entry{string(it.Key()), it.RID()}] {
			t.Fatalf("entry %d (% x, %v) is not in the model", n, it.Key(), it.RID())
		}
		if n > 0 && bytes.Compare(prev, it.Key()) > 0 {
			t.Fatalf("entry %d out of order", n)
		}
		prev = it.Key()
		n++
	}
	if n != len(model) {
		t.Fatalf("%d entries, model %d", n, len(model))
	}
	if changed == 0 || kept == 0 || split == 0 || merged == 0 {
		t.Fatalf("the storms changed %d leaves and kept %d, split %d times and merged %d: not every case ran",
			changed, kept, split, merged)
	}
}
