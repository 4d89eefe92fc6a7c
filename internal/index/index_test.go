package index

import (
	"math/rand"
	"testing"

	"dyndesign/internal/catalog"
	"dyndesign/internal/keyenc"
	"dyndesign/internal/storage"
	"dyndesign/internal/types"
)

func testSchema() *types.Schema {
	return types.MustSchema(
		types.Column{Name: "a", Kind: types.KindInt},
		types.Column{Name: "b", Kind: types.KindInt},
		types.Column{Name: "s", Kind: types.KindString},
	)
}

// loadHeap fills a heap with rows (i, i%10, "s<i%7>") and returns the
// RIDs in insertion order.
func loadHeap(t testing.TB, heap *storage.HeapFile, n int) []storage.RID {
	t.Helper()
	rids := make([]storage.RID, n)
	for i := 0; i < n; i++ {
		row := types.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(i % 10)),
			types.NewString(string(rune('s' + i%7))),
		}
		payload, err := types.EncodeRow(nil, row)
		if err != nil {
			t.Fatal(err)
		}
		rid, err := heap.Insert(payload)
		if err != nil {
			t.Fatal(err)
		}
		rids[i] = rid
	}
	return rids
}

// seekPrefix is the executor's equality seek on leading key columns: a
// range scan over [prefix, PrefixSuccessor(prefix)).
func seekPrefix(t testing.TB, ix *Index, vals []types.Value, fn func(keyVals []types.Value, rid storage.RID) bool) {
	t.Helper()
	prefix := keyenc.MustEncode(vals...)
	if err := ix.ScanEncodedRange(prefix, keyenc.PrefixSuccessor(prefix), fn); err != nil {
		t.Fatal(err)
	}
}

func TestBuildAndSeek(t *testing.T) {
	heap := storage.NewHeapFile(nil)
	loadHeap(t, heap, 1000)
	ix, err := Build(catalog.IndexDef{Table: "t", Columns: []string{"b"}}, testSchema(), heap)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Entries() != 1000 {
		t.Errorf("Entries = %d", ix.Entries())
	}
	// b = 3 matches the 100 rows with i%10 == 3.
	count := 0
	seekPrefix(t, ix, []types.Value{types.NewInt(3)}, func(kv []types.Value, rid storage.RID) bool {
		if kv[0].Int != 3 {
			t.Errorf("seek returned key %v", kv)
		}
		count++
		return true
	})
	if count != 100 {
		t.Errorf("seek matched %d rows", count)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestBuildCompositeAndCovers(t *testing.T) {
	heap := storage.NewHeapFile(nil)
	loadHeap(t, heap, 500)
	ix, err := Build(catalog.IndexDef{Table: "t", Columns: []string{"b", "a"}}, testSchema(), heap)
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.KeyColumns(); len(got) != 2 || got[0] != 1 || got[1] != 0 {
		t.Errorf("KeyColumns = %v", got)
	}
	if !ix.Covers([]int{0}) || !ix.Covers([]int{1, 0}) {
		t.Error("Covers false negatives")
	}
	if ix.Covers([]int{2}) {
		t.Error("Covers false positive")
	}
	// Prefix seek on (b=4) yields a-values in ascending order.
	var prev int64 = -1
	seekPrefix(t, ix, []types.Value{types.NewInt(4)}, func(kv []types.Value, _ storage.RID) bool {
		if kv[0].Int != 4 || kv[1].Int <= prev {
			t.Errorf("composite seek returned %v after a = %d", kv, prev)
		}
		prev = kv[1].Int
		return true
	})
	if prev < 0 {
		t.Error("composite seek matched nothing")
	}
}

func TestBuildUnknownColumn(t *testing.T) {
	heap := storage.NewHeapFile(nil)
	if _, err := Build(catalog.IndexDef{Table: "t", Columns: []string{"zzz"}}, testSchema(), heap); err == nil {
		t.Error("Build on unknown column succeeded")
	}
}

func TestScanAllOrderedAndComplete(t *testing.T) {
	heap := storage.NewHeapFile(nil)
	loadHeap(t, heap, 300)
	ix, _ := Build(catalog.IndexDef{Table: "t", Columns: []string{"a"}}, testSchema(), heap)
	var last int64 = -1
	count := 0
	err := ix.ScanEncodedRange(nil, nil, func(kv []types.Value, _ storage.RID) bool {
		if kv[0].Int <= last {
			t.Error("full scan out of order")
		}
		last = kv[0].Int
		count++
		return true
	})
	if err != nil || count != 300 {
		t.Errorf("full scan saw %d entries (err %v)", count, err)
	}
}

func TestScanRangeValues(t *testing.T) {
	heap := storage.NewHeapFile(nil)
	loadHeap(t, heap, 100)
	ix, _ := Build(catalog.IndexDef{Table: "t", Columns: []string{"a"}}, testSchema(), heap)
	count := 0
	err := ix.ScanEncodedRange(
		keyenc.MustEncode(types.NewInt(10)),
		keyenc.MustEncode(types.NewInt(20)),
		func(kv []types.Value, _ storage.RID) bool {
			if kv[0].Int < 10 || kv[0].Int >= 20 {
				t.Errorf("range scan returned %d", kv[0].Int)
			}
			count++
			return true
		})
	if err != nil || count != 10 {
		t.Errorf("range scan saw %d (err %v)", count, err)
	}
}

func TestManagerLifecycle(t *testing.T) {
	heap := storage.NewHeapFile(nil)
	loadHeap(t, heap, 50)
	m := NewManager(testSchema(), heap)
	if _, err := m.Create(catalog.IndexDef{Table: "t", Columns: []string{"a"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(catalog.IndexDef{Table: "t", Columns: []string{"a"}}); err == nil {
		t.Error("duplicate create accepted")
	}
	if _, err := m.Create(catalog.IndexDef{Table: "t", Columns: []string{"b", "a"}}); err != nil {
		t.Fatal(err)
	}
	names := m.Names()
	if len(names) != 2 || names[0] != "I(a)" || names[1] != "I(b,a)" {
		t.Errorf("Names = %v", names)
	}
	if len(m.All()) != 2 {
		t.Errorf("All = %v", m.All())
	}
	if _, ok := m.Get("I(a)"); !ok {
		t.Error("Get missed existing index")
	}
	if err := m.Drop("I(a)"); err != nil {
		t.Fatal(err)
	}
	if err := m.Drop("I(a)"); err == nil {
		t.Error("double drop accepted")
	}
	if _, ok := m.Get("I(a)"); ok {
		t.Error("dropped index still gettable")
	}
}

func TestManagerDMLMaintenance(t *testing.T) {
	heap := storage.NewHeapFile(nil)
	schema := testSchema()
	m := NewManager(schema, heap)
	m.Create(catalog.IndexDef{Table: "t", Columns: []string{"a"}})
	m.Create(catalog.IndexDef{Table: "t", Columns: []string{"b", "a"}})

	rng := rand.New(rand.NewSource(11))
	type rec struct {
		rid storage.RID
		row types.Row
	}
	var live []rec
	encode := func(row types.Row) []byte {
		p, err := types.EncodeRow(nil, row)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	newRow := func(i int) types.Row {
		return types.Row{
			types.NewInt(int64(rng.Intn(1000))),
			types.NewInt(int64(rng.Intn(20))),
			types.NewString(string(rune('a' + i%26))),
		}
	}
	for op := 0; op < 4000; op++ {
		switch r := rng.Intn(10); {
		case r < 5 || len(live) == 0: // insert
			row := newRow(op)
			rid, err := heap.Insert(encode(row))
			if err != nil {
				t.Fatal(err)
			}
			if err := m.OnInsert(row, rid); err != nil {
				t.Fatal(err)
			}
			live = append(live, rec{rid, row})
		case r < 7: // delete
			i := rng.Intn(len(live))
			if err := heap.Delete(live[i].rid); err != nil {
				t.Fatal(err)
			}
			if err := m.OnDelete(live[i].row, live[i].rid); err != nil {
				t.Fatal(err)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		default: // update
			i := rng.Intn(len(live))
			row := newRow(op)
			newRID, err := heap.Update(live[i].rid, encode(row))
			if err != nil {
				t.Fatal(err)
			}
			if err := m.OnUpdate(live[i].row, live[i].rid, row, newRID); err != nil {
				t.Fatal(err)
			}
			live[i] = rec{newRID, row}
		}
	}
	for _, ix := range m.All() {
		if err := ix.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if ix.Entries() != int64(len(live)) {
			t.Fatalf("index %s has %d entries, expected %d", ix.Def().Name(), ix.Entries(), len(live))
		}
	}
	// Every live row must be findable through each index.
	for _, r := range live {
		found := false
		ix, _ := m.Get("I(a)")
		seekPrefix(t, ix, []types.Value{r.row[0]}, func(_ []types.Value, rid storage.RID) bool {
			if rid == r.rid {
				found = true
				return false
			}
			return true
		})
		if !found {
			t.Fatalf("row %v not found via I(a)", r.rid)
		}
	}
}

func TestDeleteMissingEntryFails(t *testing.T) {
	heap := storage.NewHeapFile(nil)
	loadHeap(t, heap, 10)
	ix, _ := Build(catalog.IndexDef{Table: "t", Columns: []string{"a"}}, testSchema(), heap)
	row := types.Row{types.NewInt(9999), types.NewInt(0), types.NewString("x")}
	if err := ix.Delete(row, storage.RID{Page: 0, Slot: 0}); err == nil {
		t.Error("delete of missing entry succeeded")
	}
}

func TestSizeAccounting(t *testing.T) {
	heap := storage.NewHeapFile(nil)
	loadHeap(t, heap, 20000)
	ix, err := Build(catalog.IndexDef{Table: "t", Columns: []string{"a", "b"}}, testSchema(), heap)
	if err != nil {
		t.Fatal(err)
	}
	if ix.SizePages() <= ix.LeafPages() {
		t.Errorf("SizePages %d should exceed LeafPages %d (branch nodes)", ix.SizePages(), ix.LeafPages())
	}
	if ix.Height() < 2 {
		t.Errorf("20k-entry composite index should have height >= 2, got %d", ix.Height())
	}
}

func TestBuildChargesAccesses(t *testing.T) {
	var stats storage.AccessStats
	heap := storage.NewHeapFile(&stats)
	loadHeap(t, heap, 5000)
	stats.Reset()
	ix, err := Build(catalog.IndexDef{Table: "t", Columns: []string{"a"}}, testSchema(), heap)
	if err != nil {
		t.Fatal(err)
	}
	snap := stats.Snapshot()
	if snap.Reads < int64(heap.NumPages()) {
		t.Errorf("build charged %d reads; expected at least the heap scan (%d pages)", snap.Reads, heap.NumPages())
	}
	if snap.Writes < ix.SizePages() {
		t.Errorf("build charged %d writes; expected at least the tree nodes (%d)", snap.Writes, ix.SizePages())
	}
}
