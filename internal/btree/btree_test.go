package btree

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"dyndesign/internal/keyenc"
	"dyndesign/internal/storage"
	"dyndesign/internal/types"
)

func intKey(v int64) []byte { return keyenc.MustEncode(types.NewInt(v)) }

func ridOf(i int) storage.RID {
	return storage.RID{Page: storage.PageID(i / 100), Slot: uint16(i % 100)}
}

func TestEmptyTree(t *testing.T) {
	tr := New(nil)
	if tr.Len() != 0 || tr.Height() != 1 || tr.NodeCount() != 1 {
		t.Errorf("empty tree: len=%d h=%d nodes=%d", tr.Len(), tr.Height(), tr.NodeCount())
	}
	if tr.First().Valid() {
		t.Error("First() valid on empty tree")
	}
	if tr.Seek(intKey(0)).Valid() {
		t.Error("Seek() valid on empty tree")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestInsertAndSeek(t *testing.T) {
	tr := New(nil)
	for i := 0; i < 100; i++ {
		if err := tr.Insert(intKey(int64(i*2)), ridOf(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Exact hit.
	it := tr.Seek(intKey(10))
	if !it.Valid() || !bytes.Equal(it.Key(), intKey(10)) {
		t.Error("Seek(10) missed")
	}
	// Between keys: lands on the next one.
	it = tr.Seek(intKey(11))
	if !it.Valid() || !bytes.Equal(it.Key(), intKey(12)) {
		t.Error("Seek(11) should land on 12")
	}
	// Past the end.
	if tr.Seek(intKey(1000)).Valid() {
		t.Error("Seek past end is valid")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestInsertDuplicateEntryRejected(t *testing.T) {
	tr := New(nil)
	if err := tr.Insert(intKey(1), ridOf(0)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(intKey(1), ridOf(0)); err == nil {
		t.Error("duplicate (key, rid) accepted")
	}
	// Same key, different RID is fine.
	if err := tr.Insert(intKey(1), ridOf(1)); err != nil {
		t.Errorf("duplicate key with distinct rid rejected: %v", err)
	}
}

func TestInsertOversizedKeyRejected(t *testing.T) {
	tr := New(nil)
	huge := make([]byte, nodeBudget)
	if err := tr.Insert(huge, ridOf(0)); err == nil {
		t.Error("oversized key accepted")
	}
}

func TestSplitsAndOrdering(t *testing.T) {
	tr := New(nil)
	const n = 20000
	perm := rand.New(rand.NewSource(7)).Perm(n)
	for _, v := range perm {
		if err := tr.Insert(intKey(int64(v)), ridOf(v)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Height() < 2 {
		t.Fatalf("tree of %d entries did not split (height %d)", n, tr.Height())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Full in-order walk returns 0..n-1.
	i := 0
	for it := tr.First(); it.Valid(); it.Next() {
		if !bytes.Equal(it.Key(), intKey(int64(i))) {
			t.Fatalf("walk position %d has wrong key", i)
		}
		if it.RID() != ridOf(i) {
			t.Fatalf("walk position %d has wrong rid", i)
		}
		i++
	}
	if i != n {
		t.Fatalf("walk saw %d entries, want %d", i, n)
	}
}

func TestDuplicateKeysOrderedByRID(t *testing.T) {
	tr := New(nil)
	key := intKey(5)
	for i := 9; i >= 0; i-- {
		if err := tr.Insert(key, ridOf(i)); err != nil {
			t.Fatal(err)
		}
	}
	var rids []storage.RID
	tr.ScanRange(key, keyenc.PrefixSuccessor(key), func(k []byte, rid storage.RID) bool {
		rids = append(rids, rid)
		return true
	})
	if len(rids) != 10 {
		t.Fatalf("prefix scan saw %d duplicates", len(rids))
	}
	for i := 1; i < len(rids); i++ {
		if rids[i-1].Compare(rids[i]) >= 0 {
			t.Error("duplicates not in RID order")
		}
	}
}

func TestScanPrefixComposite(t *testing.T) {
	// Composite (a, b) index: the executor's prefix seek on a=3, a range
	// over [prefix, PrefixSuccessor(prefix)), must return exactly the a=3
	// entries, in b order.
	tr := New(nil)
	id := 0
	for a := int64(0); a < 10; a++ {
		for b := int64(0); b < 20; b++ {
			k := keyenc.MustEncode(types.NewInt(a), types.NewInt(b))
			if err := tr.Insert(k, ridOf(id)); err != nil {
				t.Fatal(err)
			}
			id++
		}
	}
	prefix := keyenc.MustEncode(types.NewInt(3))
	var keys [][]byte
	tr.ScanRange(prefix, keyenc.PrefixSuccessor(prefix), func(k []byte, _ storage.RID) bool {
		keys = append(keys, append([]byte(nil), k...))
		return true
	})
	if len(keys) != 20 {
		t.Fatalf("prefix scan saw %d entries, want 20", len(keys))
	}
	for i, k := range keys {
		vals, err := keyenc.Decode(k)
		if err != nil || vals[0].Int != 3 || vals[1].Int != int64(i) {
			t.Fatalf("prefix scan entry %d = %v (err %v)", i, vals, err)
		}
	}
}

func TestScanRange(t *testing.T) {
	tr := New(nil)
	for i := 0; i < 100; i++ {
		tr.Insert(intKey(int64(i)), ridOf(i))
	}
	var got []int64
	tr.ScanRange(intKey(10), intKey(20), func(k []byte, _ storage.RID) bool {
		vals, _ := keyenc.Decode(k)
		got = append(got, vals[0].Int)
		return true
	})
	if len(got) != 10 || got[0] != 10 || got[9] != 19 {
		t.Errorf("range [10,20) = %v", got)
	}
	// Unbounded low.
	count := 0
	tr.ScanRange(nil, intKey(5), func([]byte, storage.RID) bool { count++; return true })
	if count != 5 {
		t.Errorf("range [nil,5) saw %d", count)
	}
	// Unbounded high.
	count = 0
	tr.ScanRange(intKey(95), nil, func([]byte, storage.RID) bool { count++; return true })
	if count != 5 {
		t.Errorf("range [95,nil) saw %d", count)
	}
	// Early stop.
	count = 0
	tr.ScanRange(nil, nil, func([]byte, storage.RID) bool { count++; return count < 7 })
	if count != 7 {
		t.Errorf("early stop saw %d", count)
	}
}

func TestDeleteSimple(t *testing.T) {
	tr := New(nil)
	for i := 0; i < 10; i++ {
		tr.Insert(intKey(int64(i)), ridOf(i))
	}
	found, err := tr.Delete(intKey(5), ridOf(5))
	if err != nil || !found {
		t.Fatalf("Delete(5) = %v, %v", found, err)
	}
	found, err = tr.Delete(intKey(5), ridOf(5))
	if err != nil || found {
		t.Fatalf("second Delete(5) = %v, %v", found, err)
	}
	if tr.Len() != 9 {
		t.Errorf("Len = %d", tr.Len())
	}
	it := tr.Seek(intKey(5))
	if !it.Valid() || !bytes.Equal(it.Key(), intKey(6)) {
		t.Error("Seek(5) after delete should land on 6")
	}
}

func TestDeleteEverythingCollapsesTree(t *testing.T) {
	tr := New(nil)
	const n = 10000
	for i := 0; i < n; i++ {
		if err := tr.Insert(intKey(int64(i)), ridOf(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		found, err := tr.Delete(intKey(int64(i)), ridOf(i))
		if err != nil || !found {
			t.Fatalf("Delete(%d) = %v, %v", i, found, err)
		}
	}
	if tr.Len() != 0 {
		t.Errorf("Len = %d after deleting all", tr.Len())
	}
	if tr.Height() != 1 {
		t.Errorf("height = %d after deleting all; root did not collapse", tr.Height())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRandomizedAgainstSortedModel(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tr := New(nil)
	type entry struct {
		key int64
		rid storage.RID
	}
	var model []entry
	present := make(map[entry]bool)
	for op := 0; op < 30000; op++ {
		if rng.Intn(3) != 0 || len(model) == 0 {
			e := entry{key: int64(rng.Intn(3000)), rid: ridOf(rng.Intn(5000))}
			if present[e] {
				continue
			}
			if err := tr.Insert(intKey(e.key), e.rid); err != nil {
				t.Fatalf("op %d insert: %v", op, err)
			}
			model = append(model, e)
			present[e] = true
		} else {
			i := rng.Intn(len(model))
			e := model[i]
			found, err := tr.Delete(intKey(e.key), e.rid)
			if err != nil || !found {
				t.Fatalf("op %d delete %v: %v, %v", op, e, found, err)
			}
			model[i] = model[len(model)-1]
			model = model[:len(model)-1]
			delete(present, e)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	sort.Slice(model, func(i, j int) bool {
		if model[i].key != model[j].key {
			return model[i].key < model[j].key
		}
		return model[i].rid.Compare(model[j].rid) < 0
	})
	i := 0
	for it := tr.First(); it.Valid(); it.Next() {
		if i >= len(model) {
			t.Fatal("tree has more entries than model")
		}
		if !bytes.Equal(it.Key(), intKey(model[i].key)) || it.RID() != model[i].rid {
			t.Fatalf("position %d mismatch", i)
		}
		i++
	}
	if i != len(model) {
		t.Fatalf("tree has %d entries, model %d", i, len(model))
	}
}

func TestBulkLoad(t *testing.T) {
	const n = 50000
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{Key: intKey(int64(i)), RID: ridOf(i)}
	}
	tr := New(nil)
	if err := tr.BulkLoad(entries); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != n {
		t.Errorf("Len = %d", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Spot-check seeks.
	for _, v := range []int64{0, 1, 12345, n - 1} {
		it := tr.Seek(intKey(v))
		if !it.Valid() || !bytes.Equal(it.Key(), intKey(v)) {
			t.Errorf("Seek(%d) missed after bulk load", v)
		}
	}
	// Bulk-loaded tree accepts further inserts and deletes.
	if err := tr.Insert(keyenc.MustEncode(types.NewInt(int64(n+5))), ridOf(n+5)); err != nil {
		t.Fatal(err)
	}
	if found, err := tr.Delete(intKey(100), ridOf(100)); err != nil || !found {
		t.Fatalf("delete after bulk load: %v, %v", found, err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBulkLoadRejectsUnsorted(t *testing.T) {
	tr := New(nil)
	err := tr.BulkLoad([]Entry{
		{Key: intKey(2), RID: ridOf(0)},
		{Key: intKey(1), RID: ridOf(1)},
	})
	if err == nil {
		t.Error("unsorted bulk load accepted")
	}
	err = tr.BulkLoad([]Entry{
		{Key: intKey(1), RID: ridOf(0)},
		{Key: intKey(1), RID: ridOf(0)},
	})
	if err == nil {
		t.Error("duplicate bulk load accepted")
	}
}

func TestBulkLoadEmpty(t *testing.T) {
	tr := New(nil)
	if err := tr.BulkLoad(nil); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 || tr.First().Valid() {
		t.Error("empty bulk load not empty")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestBulkLoadEquivalentToInserts(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 5000
	entries := make([]Entry, 0, n)
	seen := make(map[int64]bool)
	for len(entries) < n {
		v := int64(rng.Intn(100000))
		if seen[v] {
			continue
		}
		seen[v] = true
		entries = append(entries, Entry{Key: intKey(v), RID: ridOf(int(v))})
	}
	sort.Slice(entries, func(i, j int) bool { return bytes.Compare(entries[i].Key, entries[j].Key) < 0 })

	bulk := New(nil)
	if err := bulk.BulkLoad(entries); err != nil {
		t.Fatal(err)
	}
	incr := New(nil)
	for _, e := range entries {
		if err := incr.Insert(e.Key, e.RID); err != nil {
			t.Fatal(err)
		}
	}
	itB, itI := bulk.First(), incr.First()
	for itB.Valid() && itI.Valid() {
		if !bytes.Equal(itB.Key(), itI.Key()) || itB.RID() != itI.RID() {
			t.Fatal("bulk and incremental trees disagree")
		}
		itB.Next()
		itI.Next()
	}
	if itB.Valid() != itI.Valid() {
		t.Fatal("bulk and incremental trees have different lengths")
	}
}

func TestStatsChargedOnOperations(t *testing.T) {
	var stats storage.AccessStats
	tr := New(&stats)
	for i := 0; i < 10000; i++ {
		tr.Insert(intKey(int64(i)), ridOf(i))
	}
	stats.Reset()
	it := tr.Seek(intKey(5000))
	if !it.Valid() {
		t.Fatal("seek missed")
	}
	if got := stats.Reads(); got != int64(tr.Height()) {
		t.Errorf("seek charged %d reads, want height %d", got, tr.Height())
	}
	// A full leaf-chain walk charges about LeafCount reads.
	stats.Reset()
	n := 0
	for it := tr.First(); it.Valid(); it.Next() {
		n++
	}
	reads := stats.Reads()
	leaves := tr.LeafCount()
	if reads < leaves || reads > leaves+int64(tr.Height()) {
		t.Errorf("full walk charged %d reads for %d leaves (height %d)", reads, leaves, tr.Height())
	}
}

func TestNodeCountTracksPages(t *testing.T) {
	tr := New(nil)
	for i := 0; i < 30000; i++ {
		tr.Insert(intKey(int64(i)), ridOf(i))
	}
	// Count nodes by direct recursion and compare with the tracked count.
	var rec func(n node) int64
	rec = func(n node) int64 {
		if n.isLeaf() {
			return 1
		}
		b := n.(*branch)
		total := int64(1)
		for _, c := range b.children {
			total += rec(c)
		}
		return total
	}
	walked := rec(tr.root)
	if walked != tr.NodeCount() {
		t.Errorf("NodeCount = %d, walked %d", tr.NodeCount(), walked)
	}
}

func TestHeightGrowsLogarithmically(t *testing.T) {
	tr := New(nil)
	for i := 0; i < 200000; i++ {
		if err := tr.Insert(intKey(int64(i)), ridOf(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Height() > 4 {
		t.Errorf("height %d for 200k int entries; fanout too small", tr.Height())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestStringKeys(t *testing.T) {
	tr := New(nil)
	words := []string{"pear", "apple", "fig", "banana", "cherry", "date", "elderberry", "grape"}
	for i, w := range words {
		k := keyenc.MustEncode(types.NewString(w))
		if err := tr.Insert(k, ridOf(i)); err != nil {
			t.Fatal(err)
		}
	}
	sorted := append([]string(nil), words...)
	sort.Strings(sorted)
	i := 0
	for it := tr.First(); it.Valid(); it.Next() {
		vals, err := keyenc.Decode(it.Key())
		if err != nil || vals[0].Str != sorted[i] {
			t.Fatalf("position %d: %v, %v; want %q", i, vals, err, sorted[i])
		}
		i++
	}
	if i != len(words) {
		t.Fatalf("walked %d entries", i)
	}
}

func TestLargeReverseAndAlternatingInsertions(t *testing.T) {
	for name, order := range map[string]func(i, n int) int64{
		"reverse": func(i, n int) int64 { return int64(n - i) },
		"alternating": func(i, n int) int64 {
			if i%2 == 0 {
				return int64(i)
			}
			return int64(n*2 - i)
		},
	} {
		t.Run(name, func(t *testing.T) {
			tr := New(nil)
			const n = 20000
			for i := 0; i < n; i++ {
				if err := tr.Insert(intKey(order(i, n)), ridOf(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if tr.Len() != n {
				t.Errorf("Len = %d", tr.Len())
			}
		})
	}
}

func TestDeleteRebalanceKeepsSeeksCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	tr := New(nil)
	const n = 30000
	for i := 0; i < n; i++ {
		tr.Insert(intKey(int64(i)), ridOf(i))
	}
	// Delete 90% at random, then verify every remaining key seeks.
	alive := make(map[int]bool, n)
	for i := 0; i < n; i++ {
		alive[i] = true
	}
	perm := rng.Perm(n)
	for _, v := range perm[:n*9/10] {
		found, err := tr.Delete(intKey(int64(v)), ridOf(v))
		if err != nil || !found {
			t.Fatalf("delete %d: %v, %v", v, found, err)
		}
		delete(alive, v)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for v := range alive {
		it := tr.Seek(intKey(int64(v)))
		if !it.Valid() || !bytes.Equal(it.Key(), intKey(int64(v))) {
			t.Fatalf("survivor %d not found", v)
		}
	}
}

func BenchmarkInsertSequential(b *testing.B) {
	tr := New(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Insert(intKey(int64(i)), ridOf(i))
	}
}

func BenchmarkSeek(b *testing.B) {
	tr := New(nil)
	const n = 100000
	for i := 0; i < n; i++ {
		tr.Insert(intKey(int64(i)), ridOf(i))
	}
	keys := make([][]byte, 1024)
	rng := rand.New(rand.NewSource(3))
	for i := range keys {
		keys[i] = intKey(int64(rng.Intn(n)))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		it := tr.Seek(keys[i%len(keys)])
		if !it.Valid() {
			b.Fatal("seek missed")
		}
	}
}

func BenchmarkBulkLoad100k(b *testing.B) {
	const n = 100000
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{Key: intKey(int64(i)), RID: ridOf(i)}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := New(nil)
		if err := tr.BulkLoad(entries); err != nil {
			b.Fatal(err)
		}
	}
}

func TestEstimatesMatchBulkLoad(t *testing.T) {
	// The estimation helpers must agree with a real bulk load, since the
	// what-if cost model relies on them.
	for _, n := range []int64{1, 100, 5000, 120000} {
		entries := make([]Entry, n)
		for i := range entries {
			entries[i] = Entry{Key: intKey(int64(i)), RID: ridOf(i)}
		}
		tr := New(nil)
		if err := tr.BulkLoad(entries); err != nil {
			t.Fatal(err)
		}
		keyBytes := len(intKey(0))
		if got, want := EstimateLeafPages(keyBytes, n), tr.LeafCount(); got != want {
			t.Errorf("n=%d: EstimateLeafPages = %d, real %d", n, got, want)
		}
		if got, want := EstimateHeight(keyBytes, n), tr.Height(); got != want {
			t.Errorf("n=%d: EstimateHeight = %d, real %d", n, got, want)
		}
		if got, want := EstimateTotalPages(keyBytes, n), tr.NodeCount(); got != want {
			t.Errorf("n=%d: EstimateTotalPages = %d, real %d", n, got, want)
		}
	}
	if LeafCapacity(9) < 2 || BranchFanout(9) < 2 {
		t.Error("implausible capacities")
	}
	// Degenerate inputs.
	if EstimateLeafPages(9, 0) != 1 || EstimateHeight(9, 0) != 1 {
		t.Error("empty-tree estimates wrong")
	}
	if LeafCapacity(nodeBudget*2) != 1 {
		t.Error("oversized-key capacity not clamped")
	}
}

// TestDeletionBorrowPaths drives deletions against bulk-loaded (90%-full)
// trees so that underflowing nodes must *borrow* from packed siblings
// rather than merge — both at the leaf level and at the branch level.
func TestDeletionBorrowPaths(t *testing.T) {
	const n = 200000
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{Key: intKey(int64(i)), RID: ridOf(i)}
	}
	tr := New(nil)
	if err := tr.BulkLoad(entries); err != nil {
		t.Fatal(err)
	}
	// Delete a long contiguous prefix: the leftmost leaves and branches
	// underflow repeatedly against 90%-full right siblings.
	for i := 0; i < 60000; i++ {
		found, err := tr.Delete(intKey(int64(i)), ridOf(i))
		if err != nil || !found {
			t.Fatalf("delete %d: %v, %v", i, found, err)
		}
		if i%20000 == 19999 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("after %d deletions: %v", i+1, err)
			}
		}
	}
	// Delete a band from the middle too (right-neighbour borrows).
	for i := 100000; i < 130000; i++ {
		found, err := tr.Delete(intKey(int64(i)), ridOf(i))
		if err != nil || !found {
			t.Fatalf("delete %d: %v, %v", i, found, err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != n-90000 {
		t.Errorf("Len = %d", tr.Len())
	}
	// Every survivor still seekable.
	for _, probe := range []int64{60000, 99999, 130000, 199999} {
		it := tr.Seek(intKey(probe))
		if !it.Valid() || !bytes.Equal(it.Key(), intKey(probe)) {
			t.Errorf("survivor %d not found", probe)
		}
	}
	// And the deleted bands are gone.
	it := tr.Seek(intKey(0))
	if !it.Valid() || !bytes.Equal(it.Key(), intKey(60000)) {
		t.Error("prefix deletion left stragglers")
	}
}

// TestDeletionBorrowFromLeft deletes a contiguous suffix so underflowing
// rightmost nodes borrow from packed left siblings (the opposite
// direction of TestDeletionBorrowPaths).
func TestDeletionBorrowFromLeft(t *testing.T) {
	const n = 200000
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{Key: intKey(int64(i)), RID: ridOf(i)}
	}
	tr := New(nil)
	if err := tr.BulkLoad(entries); err != nil {
		t.Fatal(err)
	}
	for i := n - 1; i >= n-60000; i-- {
		found, err := tr.Delete(intKey(int64(i)), ridOf(i))
		if err != nil || !found {
			t.Fatalf("delete %d: %v, %v", i, found, err)
		}
		if i%20000 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("at %d: %v", i, err)
			}
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The tree ends exactly at the new maximum.
	it := tr.Seek(intKey(n - 60001))
	if !it.Valid() || !bytes.Equal(it.Key(), intKey(n-60001)) {
		t.Error("new maximum not found")
	}
	it.Next()
	if it.Valid() {
		t.Error("entries past the deleted suffix remain")
	}
}
