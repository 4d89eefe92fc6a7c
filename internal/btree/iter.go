package btree

import (
	"bytes"
	"fmt"

	"dyndesign/internal/storage"
)

// Iterator walks entries in ascending (key, RID) order. Obtain one from
// Tree.Seek or Tree.First. An Iterator observes a snapshot only in the
// absence of concurrent mutation; the engine never mutates a tree while
// scanning it.
type Iterator struct {
	tree *Tree
	leaf *leaf
	pos  int
}

// Valid reports whether the iterator is positioned on an entry.
func (it *Iterator) Valid() bool {
	return it.leaf != nil && it.pos < len(it.leaf.keys)
}

// Key returns the current entry's key. The slice must not be modified.
func (it *Iterator) Key() []byte { return it.leaf.keys[it.pos] }

// RID returns the current entry's RID.
func (it *Iterator) RID() storage.RID { return it.leaf.rids[it.pos] }

// Next advances to the next entry. Moving into a new leaf charges one
// page read.
func (it *Iterator) Next() {
	it.pos++
	for it.leaf != nil && it.pos >= len(it.leaf.keys) {
		it.leaf = it.leaf.next
		it.pos = 0
		if it.leaf != nil {
			it.tree.stats.Read(1)
		}
	}
}

// First positions an iterator on the smallest entry, charging one page
// read per level descended.
func (t *Tree) First() *Iterator {
	n := t.root
	t.stats.Read(1)
	for !n.isLeaf() {
		n = n.(*branch).children[0]
		t.stats.Read(1)
	}
	it := &Iterator{tree: t, leaf: n.(*leaf), pos: -1}
	it.pos = 0
	for it.leaf != nil && len(it.leaf.keys) == 0 {
		it.leaf = it.leaf.next
		if it.leaf != nil {
			t.stats.Read(1)
		}
	}
	return it
}

// Seek positions an iterator on the first entry whose key is >= key,
// charging one page read per level descended.
func (t *Tree) Seek(key []byte) *Iterator {
	return t.seekEntry(key, storage.RID{})
}

func (t *Tree) seekEntry(key []byte, rid storage.RID) *Iterator {
	n := t.root
	t.stats.Read(1)
	for !n.isLeaf() {
		b := n.(*branch)
		n = b.children[b.childFor(key, rid)]
		t.stats.Read(1)
	}
	l := n.(*leaf)
	it := &Iterator{tree: t, leaf: l, pos: l.find(key, rid)}
	for it.leaf != nil && it.pos >= len(it.leaf.keys) {
		it.leaf = it.leaf.next
		it.pos = 0
		if it.leaf != nil {
			t.stats.Read(1)
		}
	}
	return it
}

// ScanRange calls fn for every entry with low <= key < high (nil bounds
// are unbounded), in order, stopping early if fn returns false. A full
// range is ScanLeaves with fn called for each of a leaf's entries.
func (t *Tree) ScanRange(low, high []byte, fn func(key []byte, rid storage.RID) bool) {
	if low == nil && high == nil {
		t.ScanLeaves(func(keys [][]byte, rids []storage.RID, _ *any) bool {
			for i, k := range keys {
				if !fn(k, rids[i]) {
					return false
				}
			}
			return true
		})
		return
	}
	var it *Iterator
	if low == nil {
		it = t.First()
	} else {
		it = t.Seek(low)
	}
	for ; it.Valid(); it.Next() {
		if high != nil && bytes.Compare(it.Key(), high) >= 0 {
			return
		}
		if !fn(it.Key(), it.RID()) {
			return
		}
	}
}

// ScanLeaves calls fn for every leaf in key order, on the caller: one
// call per leaf with its keys, its RIDs and its derived-data slot. fn
// ends the scan by returning false. The slices alias the tree: fn must
// neither modify nor retain them. The slot is fn's to read and write;
// the tree empties it whenever the leaf's entries change. ScanLeaves
// charges what First and Next charge: the height, then one read per
// further leaf up to the leaf where the scan ended. The tree must not
// change while it runs.
func (t *Tree) ScanLeaves(fn func(keys [][]byte, rids []storage.RID, view *any) bool) {
	visited := int64(t.height - 1)
	for l := t.firstLeaf(); l != nil; l = l.next {
		visited++
		if !fn(l.keys, l.rids, &l.view) {
			break
		}
	}
	t.stats.Read(visited)
}

// BulkLoad builds a tree from entries that must already be sorted by
// (key, RID) with no duplicates. It replaces the tree's contents and is
// the fast path for online index builds: leaves are packed to ~90% of
// the node budget and upper levels are built bottom-up. Each node built
// charges one page write. Each leaf copies its keys into one allocation
// of its own; the tree retains none of the caller's key slices.
func (t *Tree) BulkLoad(entries []Entry) error {
	return t.BulkLoadFunc(len(entries), func(i int) int { return len(entries[i].Key) },
		func(dst []byte, i int) ([]byte, storage.RID) { return append(dst, entries[i].Key...), entries[i].RID })
}

// BulkLoadFunc is BulkLoad over n entries that the caller writes in
// place: keyLen returns the length of key i, and appendEntry appends key
// i to dst, the arena of the leaf that takes it, and returns the result
// and entry i's RID. A caller holding its keys apart from their RIDs (an
// online index build: a key arena and a sort permutation) makes no slice
// of entries and no copy of a key outside the leaves.
func (t *Tree) BulkLoadFunc(n int, keyLen func(i int) int, appendEntry func(dst []byte, i int) ([]byte, storage.RID)) error {
	return t.bulkLoad(n, 0, keyLen, appendEntry)
}

// BulkLoadFixed is BulkLoadFunc for keys that are all keyLen bytes long:
// each leaf's share of the entries follows from the fill alone, so no
// key is sized before it is written.
func (t *Tree) BulkLoadFixed(n, keyLen int, appendEntry func(dst []byte, i int) ([]byte, storage.RID)) error {
	return t.bulkLoad(n, keyLen, nil, appendEntry)
}

// bulkLoad is the one loader behind BulkLoad, BulkLoadFunc and
// BulkLoadFixed: fixed > 0 is the length of every key, else keyLen gives
// each key's.
func (t *Tree) bulkLoad(n, fixed int, keyLen func(i int) int, appendEntry func(dst []byte, i int) ([]byte, storage.RID)) error {
	const fill = nodeBudget * 9 / 10
	// Build the leaf level: each leaf takes as many entries as fit the
	// fill, at least one, and has their keys written into one arena of
	// its own, so a leaf's keys lie in key order in memory. Each entry is
	// checked against the one before it as it is written, so the input's
	// keys are read once; the tree is untouched until all have passed.
	var leaves []*leaf
	var prev []byte
	var prevRID storage.RID
	for i := 0; i < n || len(leaves) == 0; {
		j, size := i, 0
		if fixed > 0 {
			j = min(n, i+max(1, fill/(fixed+leafEntryOverhead)))
			size = (j - i) * (fixed + leafEntryOverhead)
		}
		for ; fixed == 0 && j < n; j++ {
			sz := keyLen(j) + leafEntryOverhead
			if size+sz > fill && j > i {
				break
			}
			size += sz
		}
		l := &leaf{keys: make([][]byte, j-i), rids: make([]storage.RID, j-i), bytes: size}
		arena := make([]byte, 0, size-(j-i)*leafEntryOverhead)
		for k := range j - i {
			start := len(arena)
			var rid storage.RID
			arena, rid = appendEntry(arena, i+k)
			key := arena[start:len(arena):len(arena)]
			want := fixed
			if want == 0 {
				want = keyLen(i + k)
			}
			if len(key) != want {
				return fmt.Errorf("btree: bulk-load key %d is %d bytes, announced %d", i+k, len(key), want)
			}
			if i+k > 0 && compareEntry(prev, prevRID, key, rid) >= 0 {
				return fmt.Errorf("btree: bulk-load input not strictly sorted at position %d", i+k)
			}
			l.keys[k], l.rids[k], prev, prevRID = key, rid, key, rid
		}
		leaves = append(leaves, l)
		i = j
	}
	for i := 0; i < len(leaves)-1; i++ {
		leaves[i].next = leaves[i+1]
	}
	t.nodes = int64(len(leaves))
	t.stats.Write(int64(len(leaves)))
	t.entries = int64(n)
	t.height = 1

	// Build branch levels bottom-up until a single root remains.
	level := make([]node, len(leaves))
	firstEntries := make([]Entry, len(leaves))
	for i, l := range leaves {
		level[i] = l
		if len(l.keys) > 0 {
			firstEntries[i] = Entry{Key: l.keys[0], RID: l.rids[0]}
		}
	}
	for len(level) > 1 {
		var nextLevel []node
		var nextFirsts []Entry
		cur := &branch{children: []node{level[0]}}
		curFirst := firstEntries[0]
		for i := 1; i < len(level); i++ {
			sz := branchEntrySize(firstEntries[i].Key)
			if cur.bytes+sz > fill && len(cur.sepKeys) > 0 {
				nextLevel = append(nextLevel, cur)
				nextFirsts = append(nextFirsts, curFirst)
				cur = &branch{children: []node{level[i]}}
				curFirst = firstEntries[i]
				continue
			}
			cur.sepKeys = append(cur.sepKeys, firstEntries[i].Key)
			cur.sepRIDs = append(cur.sepRIDs, firstEntries[i].RID)
			cur.children = append(cur.children, level[i])
			cur.bytes += sz
		}
		nextLevel = append(nextLevel, cur)
		nextFirsts = append(nextFirsts, curFirst)
		t.nodes += int64(len(nextLevel))
		t.stats.Write(int64(len(nextLevel)))
		level = nextLevel
		firstEntries = nextFirsts
		t.height++
	}
	t.root = level[0]
	return nil
}

// CheckInvariants verifies structural invariants: key ordering within and
// across nodes, separator correctness, uniform leaf depth, the leaf chain,
// byte accounting, and the entry count. Tests call it after mutation
// storms; it returns the first violation found.
func (t *Tree) CheckInvariants() error {
	var leafDepth int
	var count int64
	var prevKey []byte
	var prevRID storage.RID
	first := true

	var walk func(n node, depth int, low, high *Entry) error
	walk = func(n node, depth int, low, high *Entry) error {
		if n.isLeaf() {
			if leafDepth == 0 {
				leafDepth = depth
			} else if depth != leafDepth {
				return fmt.Errorf("btree: leaf at depth %d, expected %d", depth, leafDepth)
			}
			l := n.(*leaf)
			if len(l.keys) != len(l.rids) {
				return fmt.Errorf("btree: leaf key/rid length mismatch")
			}
			wantBytes := 0
			for i := range l.keys {
				wantBytes += leafEntrySize(l.keys[i])
				if !first {
					if compareEntry(prevKey, prevRID, l.keys[i], l.rids[i]) >= 0 {
						return fmt.Errorf("btree: entries out of order")
					}
				}
				if low != nil && compareEntry(l.keys[i], l.rids[i], low.Key, low.RID) < 0 {
					return fmt.Errorf("btree: entry below subtree lower bound")
				}
				if high != nil && compareEntry(l.keys[i], l.rids[i], high.Key, high.RID) >= 0 {
					return fmt.Errorf("btree: entry at/above subtree upper bound")
				}
				prevKey, prevRID = l.keys[i], l.rids[i]
				first = false
				count++
			}
			if wantBytes != l.bytes {
				return fmt.Errorf("btree: leaf byte accounting %d != %d", l.bytes, wantBytes)
			}
			return nil
		}
		b := n.(*branch)
		if len(b.children) != len(b.sepKeys)+1 {
			return fmt.Errorf("btree: branch with %d children, %d separators", len(b.children), len(b.sepKeys))
		}
		wantBytes := 0
		for i := range b.sepKeys {
			wantBytes += branchEntrySize(b.sepKeys[i])
			if i > 0 && compareEntry(b.sepKeys[i-1], b.sepRIDs[i-1], b.sepKeys[i], b.sepRIDs[i]) >= 0 {
				return fmt.Errorf("btree: separators out of order")
			}
		}
		if wantBytes != b.bytes {
			return fmt.Errorf("btree: branch byte accounting %d != %d", b.bytes, wantBytes)
		}
		for i, c := range b.children {
			childLow, childHigh := low, high
			if i > 0 {
				childLow = &Entry{Key: b.sepKeys[i-1], RID: b.sepRIDs[i-1]}
			}
			if i < len(b.sepKeys) {
				childHigh = &Entry{Key: b.sepKeys[i], RID: b.sepRIDs[i]}
			}
			if err := walk(c, depth+1, childLow, childHigh); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, 1, nil, nil); err != nil {
		return err
	}
	if count != t.entries {
		return fmt.Errorf("btree: entry count %d != walked %d", t.entries, count)
	}
	if leafDepth != 0 && leafDepth != t.height {
		return fmt.Errorf("btree: height %d != leaf depth %d", t.height, leafDepth)
	}
	// The leaf chain must visit exactly the leaves, in order.
	var chained int64
	for l := t.firstLeaf(); l != nil; l = l.next {
		chained += int64(len(l.keys))
	}
	if chained != t.entries {
		return fmt.Errorf("btree: leaf chain has %d entries, tree has %d", chained, t.entries)
	}
	return nil
}
