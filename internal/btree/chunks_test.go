package btree

import (
	"bytes"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"dyndesign/internal/keyenc"
	"dyndesign/internal/storage"
	"dyndesign/internal/types"
)

// chunkTestTree builds a tree of n two-column entries with many
// duplicate keys, by inserts followed by deletes of every fifth entry
// (so leaves merge and borrow), or by a bulk load.
func chunkTestTree(t *testing.T, stats *storage.AccessStats, n int, bulk bool) *Tree {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	entries := make([]Entry, n)
	for i := range entries {
		key := keyenc.MustEncode(types.NewInt(int64(rng.Intn(50))), types.NewString(string(rune('a'+rng.Intn(3)))))
		entries[i] = Entry{Key: key, RID: ridOf(i)}
	}
	tr := New(stats)
	if bulk {
		sort.Slice(entries, func(i, j int) bool {
			return compareEntry(entries[i].Key, entries[i].RID, entries[j].Key, entries[j].RID) < 0
		})
		if err := tr.BulkLoad(entries); err != nil {
			t.Fatal(err)
		}
	} else {
		for _, e := range entries {
			if err := tr.Insert(e.Key, e.RID); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i += 5 {
			if _, err := tr.Delete(entries[i].Key, entries[i].RID); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return tr
}

func sameEntries(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].Key, b[i].Key) || a[i].RID != b[i].RID {
			return false
		}
	}
	return true
}

// leafEntries adapts an entry callback to ScanChunks' leaf callback: it
// calls fn for the leaf's entries in order, as ScanRange does.
func leafEntries(fn func([]byte, storage.RID) bool) func([][]byte, []storage.RID, *any) bool {
	return func(keys [][]byte, rids []storage.RID, _ *any) bool {
		for i, k := range keys {
			if !fn(k, rids[i]) {
				return false
			}
		}
		return true
	}
}

// TestScanChunksMatchesIterator: on trees below and above the split
// threshold, built by inserts and deletes or bulk-loaded, ScanChunks at
// GOMAXPROCS 1 to 4 and ScanRange(nil, nil) yield the (key, RID)
// sequence of First and Next and charge what they charge — the height
// plus one read per further leaf — for a full scan and for scans that
// end in different chunks.
func TestScanChunksMatchesIterator(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, n := range []int{0, 500, 6000, 30000} {
		for _, bulk := range []bool{false, true} {
			var stats storage.AccessStats
			tr := chunkTestTree(t, &stats, n, bulk)
			for _, stopAt := range []int{-1, 0, 3000, 17000} {
				var want []Entry
				before := stats.Snapshot()
				for it := tr.First(); it.Valid(); it.Next() {
					want = append(want, Entry{Key: it.Key(), RID: it.RID()})
					if len(want)-1 == stopAt {
						break
					}
				}
				wantCharge := stats.Snapshot().Sub(before)
				if stopAt < 0 && wantCharge.Reads != int64(tr.Height())+tr.LeafCount()-1 {
					t.Fatalf("n=%d: a full iteration charged %d reads, height %d, %d leaves", n, wantCharge.Reads, tr.Height(), tr.LeafCount())
				}
				stopping := stopAt >= 0 && stopAt < len(want)
				collect := func(part *[]Entry) func([]byte, storage.RID) bool {
					return func(k []byte, rid storage.RID) bool {
						*part = append(*part, Entry{Key: k, RID: rid})
						return !(stopping && rid == want[stopAt].RID && bytes.Equal(k, want[stopAt].Key))
					}
				}
				var serial []Entry
				before = stats.Snapshot()
				tr.ScanRange(nil, nil, collect(&serial))
				if charged := stats.Snapshot().Sub(before); !sameEntries(serial, want) || charged != wantCharge {
					t.Fatalf("n=%d bulk=%v stop %d: ScanRange gave %d entries for %+v; iterator %d for %+v",
						n, bulk, stopAt, len(serial), charged, len(want), wantCharge)
				}
				for procs := 1; procs <= 4; procs++ {
					runtime.GOMAXPROCS(procs)
					before := stats.Snapshot()
					var got []Entry
					for _, p := range ScanChunks(tr, func(part *[]Entry) func([][]byte, []storage.RID, *any) bool { return leafEntries(collect(part)) }) {
						got = append(got, p...)
					}
					if charged := stats.Snapshot().Sub(before); !sameEntries(got, want) || charged != wantCharge {
						t.Fatalf("n=%d bulk=%v stop %d GOMAXPROCS %d: ScanChunks gave %d entries for %+v; iterator %d for %+v",
							n, bulk, stopAt, procs, len(got), charged, len(want), wantCharge)
					}
				}
			}
		}
	}
}
