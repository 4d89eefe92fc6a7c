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

// scanTestTree builds a tree of n two-column entries with many
// duplicate keys, by inserts followed by deletes of every fifth entry
// (so leaves merge and borrow), or by a bulk load.
func scanTestTree(t *testing.T, stats *storage.AccessStats, n int, bulk bool) *Tree {
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

// leaves returns the leaves in key order, read off the leaf chain.
func (t *Tree) leaves() []*leaf {
	var out []*leaf
	for l := t.firstLeaf(); l != nil; l = l.next {
		out = append(out, l)
	}
	return out
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

// TestScanLeavesMatchesIterator: on trees built by inserts and deletes
// or bulk-loaded, ScanLeaves, stopped at every leaf in turn or never,
// yields the leaves of First and Next in order, with their entries, and
// charges what the iterator charges up to that leaf's last entry — the
// height plus one read per further leaf. ScanRange(nil, nil), stopped at
// every entry in turn (on the large trees, at the first and the last
// entry of every leaf) or never, yields the iterator's (key, RID)
// sequence and charges what it charges.
func TestScanLeavesMatchesIterator(t *testing.T) {
	for _, n := range []int{0, 1, 500, 6000} {
		for _, bulk := range []bool{false, true} {
			var stats storage.AccessStats
			tr := scanTestTree(t, &stats, n, bulk)
			// The oracle: every entry in iterator order, the read count
			// at which the iterator stood on it, and the leaf it lies in.
			var want []Entry
			var reads, leafOf []int64
			before := stats.Snapshot()
			for it := tr.First(); it.Valid(); it.Next() {
				want = append(want, Entry{Key: it.Key(), RID: it.RID()})
				reads = append(reads, stats.Snapshot().Sub(before).Reads)
				leafOf = append(leafOf, reads[len(reads)-1]-int64(tr.Height()))
			}
			full := stats.Snapshot().Sub(before)
			if full.Reads != int64(tr.Height())+tr.LeafCount()-1 {
				t.Fatalf("n=%d: a full iteration charged %d reads, height %d, %d leaves", n, full.Reads, tr.Height(), tr.LeafCount())
			}
			for stop := -1; stop < int(tr.LeafCount()); stop++ {
				var got []Entry
				leaf := 0
				before := stats.Snapshot()
				tr.ScanLeaves(func(keys [][]byte, rids []storage.RID, _ *any) bool {
					for i, k := range keys {
						got = append(got, Entry{Key: k, RID: rids[i]})
					}
					leaf++
					return leaf-1 != stop
				})
				charged := stats.Snapshot().Sub(before)
				wantEntries, wantReads := want, full.Reads
				if stop >= 0 {
					wantEntries = want[:0]
					for i := range want {
						if leafOf[i] <= int64(stop) {
							wantEntries = want[:i+1]
						}
					}
					wantReads = int64(tr.Height() + stop)
				}
				if !sameEntries(got, wantEntries) || charged.Reads != wantReads || charged.Writes != 0 {
					t.Fatalf("n=%d bulk=%v stop at leaf %d: ScanLeaves gave %d entries for %+v; the iterator %d for %d reads",
						n, bulk, stop, len(got), charged, len(wantEntries), wantReads)
				}
			}
			for stop := -1; stop < len(want); stop++ {
				// On the large trees, the first and last entry of each leaf.
				if inner := stop > 0 && stop+1 < len(want) && leafOf[stop-1] == leafOf[stop] && leafOf[stop+1] == leafOf[stop]; inner && len(want) > 1000 {
					continue
				}
				var got []Entry
				before := stats.Snapshot()
				tr.ScanRange(nil, nil, func(k []byte, rid storage.RID) bool {
					got = append(got, Entry{Key: k, RID: rid})
					return len(got)-1 != stop
				})
				charged := stats.Snapshot().Sub(before)
				wantEntries, wantReads := want, full.Reads
				if stop >= 0 {
					wantEntries, wantReads = want[:stop+1], reads[stop]
				}
				if !sameEntries(got, wantEntries) || charged.Reads != wantReads || charged.Writes != 0 {
					t.Fatalf("n=%d bulk=%v stop at entry %d: ScanRange gave %d entries for %+v; the iterator %d for %d reads",
						n, bulk, stop, len(got), charged, len(wantEntries), wantReads)
				}
			}
		}
	}
}
