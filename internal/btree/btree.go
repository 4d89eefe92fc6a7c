// Package btree implements an in-memory B+-tree with byte-encoded
// composite keys and RID payloads. It is the physical structure behind
// every secondary index in the engine.
//
// Although nodes live on the Go heap rather than in disk pages, each node
// has a byte budget equal to a storage page and every node visit charges
// one logical page access to the shared storage.AccessStats. The tree
// therefore has the same shape (fanout, height, leaf count) and the same
// measured cost profile as a paged on-disk B+-tree, which is what the
// physical-design cost model needs (see DESIGN.md §2).
//
// Entries are (key, RID) pairs ordered lexicographically by key and then
// by RID, so duplicate keys are supported and every entry is unique.
package btree

import (
	"bytes"
	"fmt"

	"dyndesign/internal/storage"
)

const (
	// nodeBudget is the payload byte budget of one node; a node that
	// exceeds it after an insert splits.
	nodeBudget = storage.PageSize - 64
	// minBudget is the underflow threshold for non-root nodes; deletion
	// rebalances nodes below it.
	minBudget = nodeBudget / 4
	// leafEntryOverhead approximates per-entry leaf bookkeeping: a 6-byte
	// RID plus slot/offset overhead.
	leafEntryOverhead = 14
	// branchEntryOverhead approximates per-separator branch bookkeeping:
	// a child pointer plus slot/offset overhead.
	branchEntryOverhead = 16
)

// Entry is one index entry: an encoded key and the heap RID it points to.
type Entry struct {
	Key []byte
	RID storage.RID
}

func compareEntry(k1 []byte, r1 storage.RID, k2 []byte, r2 storage.RID) int {
	if c := bytes.Compare(k1, k2); c != 0 {
		return c
	}
	return r1.Compare(r2)
}

func leafEntrySize(key []byte) int   { return len(key) + leafEntryOverhead }
func branchEntrySize(key []byte) int { return len(key) + branchEntryOverhead }

type node interface {
	isLeaf() bool
	size() int // current payload bytes
}

type leaf struct {
	keys  [][]byte
	rids  []storage.RID
	next  *leaf
	bytes int
	// view is the leaf's derived-data slot, handed to ScanLeaves'
	// callback beside the keys and RIDs. The tree never reads it and
	// empties it whenever the leaf's entries change: on an insert or a
	// delete, and on every leaf a split, a borrow or a merge rewrites.
	// Only the ScanLeaves callback writes it, on the caller; the caller
	// keeps scans and mutations of one tree from running at once (the
	// engine holds its database lock).
	view any
}

func (l *leaf) isLeaf() bool { return true }
func (l *leaf) size() int    { return l.bytes }

// find returns the position of the first entry >= (key, rid).
func (l *leaf) find(key []byte, rid storage.RID) int {
	lo, hi := 0, len(l.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if compareEntry(l.keys[mid], l.rids[mid], key, rid) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

type branch struct {
	// seps[i] is the smallest (key, rid) entry reachable under
	// children[i+1]; children[i] holds entries < seps[i].
	sepKeys  [][]byte
	sepRIDs  []storage.RID
	children []node
	bytes    int
}

func (b *branch) isLeaf() bool { return false }
func (b *branch) size() int    { return b.bytes }

// childFor returns the index of the child subtree that may contain
// (key, rid).
func (b *branch) childFor(key []byte, rid storage.RID) int {
	lo, hi := 0, len(b.sepKeys)
	for lo < hi {
		mid := (lo + hi) / 2
		if compareEntry(key, rid, b.sepKeys[mid], b.sepRIDs[mid]) < 0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Tree is the B+-tree. The zero value is not usable; construct with New.
// Tree is not safe for concurrent mutation; the engine serializes DML per
// table, matching its single-writer execution model.
type Tree struct {
	root    node
	height  int // number of levels, 1 = root is a leaf
	entries int64
	nodes   int64
	stats   *storage.AccessStats
}

// New returns an empty tree charging page accesses to stats (nil disables
// counting).
func New(stats *storage.AccessStats) *Tree {
	return &Tree{root: &leaf{}, height: 1, nodes: 1, stats: stats}
}

// Len returns the number of entries.
func (t *Tree) Len() int64 { return t.entries }

// NodeCount returns the number of nodes, i.e. the size of the tree in
// pages.
func (t *Tree) NodeCount() int64 { return t.nodes }

// Height returns the number of levels (1 when the root is a leaf).
func (t *Tree) Height() int { return t.height }

// LeafCount returns the number of leaf nodes, walking the leaf chain.
// It does not charge page accesses (it is a metadata query).
func (t *Tree) LeafCount() int64 {
	n := int64(0)
	for l := t.firstLeaf(); l != nil; l = l.next {
		n++
	}
	return n
}

func (t *Tree) firstLeaf() *leaf {
	n := t.root
	for !n.isLeaf() {
		n = n.(*branch).children[0]
	}
	return n.(*leaf)
}

// Insert adds an entry. Inserting an entry that already exists (same key
// and RID) is an error: the index manager guarantees uniqueness, so a
// duplicate indicates a bookkeeping bug.
func (t *Tree) Insert(key []byte, rid storage.RID) error {
	if leafEntrySize(key) > nodeBudget/4 {
		return fmt.Errorf("btree: key of %d bytes is too large", len(key))
	}
	sepKey, sepRID, right, err := t.insert(t.root, t.height, key, rid)
	if err != nil {
		return err
	}
	if right != nil {
		newRoot := &branch{
			sepKeys:  [][]byte{sepKey},
			sepRIDs:  []storage.RID{sepRID},
			children: []node{t.root, right},
			bytes:    branchEntrySize(sepKey),
		}
		t.root = newRoot
		t.height++
		t.nodes++
		t.stats.Write(1)
	}
	t.entries++
	return nil
}

// insert descends to the leaf, inserts, and propagates splits upward.
// level is the height of n's subtree (1 = n is a leaf).
func (t *Tree) insert(n node, level int, key []byte, rid storage.RID) (sepKey []byte, sepRID storage.RID, right node, err error) {
	t.stats.Read(1)
	if n.isLeaf() {
		l := n.(*leaf)
		pos := l.find(key, rid)
		if pos < len(l.keys) && compareEntry(l.keys[pos], l.rids[pos], key, rid) == 0 {
			return nil, storage.RID{}, nil, fmt.Errorf("btree: duplicate entry (key %x, rid %s)", key, rid)
		}
		l.keys = append(l.keys, nil)
		copy(l.keys[pos+1:], l.keys[pos:])
		l.keys[pos] = append([]byte(nil), key...)
		l.rids = append(l.rids, storage.RID{})
		copy(l.rids[pos+1:], l.rids[pos:])
		l.rids[pos] = rid
		l.bytes += leafEntrySize(key)
		l.view = nil
		t.stats.Write(1)
		if l.bytes <= nodeBudget {
			return nil, storage.RID{}, nil, nil
		}
		return t.splitLeaf(l)
	}
	b := n.(*branch)
	ci := b.childFor(key, rid)
	sk, sr, r, err := t.insert(b.children[ci], level-1, key, rid)
	if err != nil || r == nil {
		return nil, storage.RID{}, nil, err
	}
	// Child split: insert separator sk/sr and new child r after ci.
	b.sepKeys = append(b.sepKeys, nil)
	copy(b.sepKeys[ci+1:], b.sepKeys[ci:])
	b.sepKeys[ci] = sk
	b.sepRIDs = append(b.sepRIDs, storage.RID{})
	copy(b.sepRIDs[ci+1:], b.sepRIDs[ci:])
	b.sepRIDs[ci] = sr
	b.children = append(b.children, nil)
	copy(b.children[ci+2:], b.children[ci+1:])
	b.children[ci+1] = r
	b.bytes += branchEntrySize(sk)
	t.stats.Write(1)
	if b.bytes <= nodeBudget {
		return nil, storage.RID{}, nil, nil
	}
	return t.splitBranch(b)
}

// splitLeaf splits l around its byte midpoint and returns the separator
// (the first entry of the right sibling) and the new right leaf.
func (t *Tree) splitLeaf(l *leaf) ([]byte, storage.RID, node, error) {
	mid, acc := 0, 0
	for mid < len(l.keys)-1 && acc < l.bytes/2 {
		acc += leafEntrySize(l.keys[mid])
		mid++
	}
	if mid == 0 {
		mid = 1
	}
	right := &leaf{
		keys: append([][]byte(nil), l.keys[mid:]...),
		rids: append([]storage.RID(nil), l.rids[mid:]...),
		next: l.next,
	}
	for _, k := range right.keys {
		right.bytes += leafEntrySize(k)
	}
	l.keys = l.keys[:mid:mid]
	l.rids = l.rids[:mid:mid]
	l.bytes -= right.bytes
	l.next = right
	l.view = nil
	t.nodes++
	t.stats.Write(2)
	return right.keys[0], right.rids[0], right, nil
}

// splitBranch splits b around its byte midpoint. The separator at the
// split position moves up to the parent.
func (t *Tree) splitBranch(b *branch) ([]byte, storage.RID, node, error) {
	mid, acc := 0, 0
	for mid < len(b.sepKeys)-1 && acc < b.bytes/2 {
		acc += branchEntrySize(b.sepKeys[mid])
		mid++
	}
	if mid == 0 {
		mid = 1
	}
	upKey, upRID := b.sepKeys[mid], b.sepRIDs[mid]
	right := &branch{
		sepKeys:  append([][]byte(nil), b.sepKeys[mid+1:]...),
		sepRIDs:  append([]storage.RID(nil), b.sepRIDs[mid+1:]...),
		children: append([]node(nil), b.children[mid+1:]...),
	}
	for _, k := range right.sepKeys {
		right.bytes += branchEntrySize(k)
	}
	b.sepKeys = b.sepKeys[:mid:mid]
	b.sepRIDs = b.sepRIDs[:mid:mid]
	b.children = b.children[: mid+1 : mid+1]
	b.bytes -= right.bytes + branchEntrySize(upKey)
	t.nodes++
	t.stats.Write(2)
	return upKey, upRID, right, nil
}

// Delete removes the entry (key, rid), reporting whether it was present.
func (t *Tree) Delete(key []byte, rid storage.RID) (bool, error) {
	found := t.delete(t.root, key, rid)
	if !found {
		return false, nil
	}
	t.entries--
	// Collapse a root branch with a single child.
	for {
		b, ok := t.root.(*branch)
		if !ok || len(b.children) != 1 {
			break
		}
		t.root = b.children[0]
		t.height--
		t.nodes--
		t.stats.Write(1)
	}
	return true, nil
}

func (t *Tree) delete(n node, key []byte, rid storage.RID) bool {
	t.stats.Read(1)
	if n.isLeaf() {
		l := n.(*leaf)
		pos := l.find(key, rid)
		if pos >= len(l.keys) || compareEntry(l.keys[pos], l.rids[pos], key, rid) != 0 {
			return false
		}
		l.bytes -= leafEntrySize(l.keys[pos])
		l.keys = append(l.keys[:pos], l.keys[pos+1:]...)
		l.rids = append(l.rids[:pos], l.rids[pos+1:]...)
		l.view = nil
		t.stats.Write(1)
		return true
	}
	b := n.(*branch)
	ci := b.childFor(key, rid)
	if !t.delete(b.children[ci], key, rid) {
		return false
	}
	if b.children[ci].size() < minBudget {
		t.fixUnderflow(b, ci)
	}
	return true
}

// fixUnderflow restores the occupancy of b.children[ci] by borrowing from
// a sibling or merging with one.
func (t *Tree) fixUnderflow(b *branch, ci int) {
	// Prefer the left sibling; fall back to the right.
	if ci > 0 {
		if t.borrowOrMerge(b, ci-1) {
			return
		}
	}
	if ci < len(b.children)-1 {
		t.borrowOrMerge(b, ci)
	}
}

// borrowOrMerge balances or merges children[i] and children[i+1]. It
// returns true if it changed anything. When the combined payload fits one
// node the two merge; otherwise entries move to even the sizes.
func (t *Tree) borrowOrMerge(b *branch, i int) bool {
	left, right := b.children[i], b.children[i+1]
	if left.isLeaf() != right.isLeaf() {
		panic("btree: sibling level mismatch")
	}
	if left.isLeaf() {
		l, r := left.(*leaf), right.(*leaf)
		if l.bytes+r.bytes <= nodeBudget {
			// Merge right into left.
			l.view = nil
			l.keys = append(l.keys, r.keys...)
			l.rids = append(l.rids, r.rids...)
			l.bytes += r.bytes
			l.next = r.next
			t.removeChild(b, i+1)
			t.nodes--
			t.stats.Write(2)
			return true
		}
		// Borrow: move entries across the boundary until balanced.
		if l.bytes < r.bytes {
			for l.bytes < minBudget && len(r.keys) > 1 {
				k, rid := r.keys[0], r.rids[0]
				r.keys = r.keys[1:]
				r.rids = r.rids[1:]
				r.bytes -= leafEntrySize(k)
				l.keys = append(l.keys, k)
				l.rids = append(l.rids, rid)
				l.bytes += leafEntrySize(k)
				l.view, r.view = nil, nil
			}
		} else {
			for r.bytes < minBudget && len(l.keys) > 1 {
				last := len(l.keys) - 1
				k, rid := l.keys[last], l.rids[last]
				l.keys = l.keys[:last]
				l.rids = l.rids[:last]
				l.bytes -= leafEntrySize(k)
				r.keys = append([][]byte{k}, r.keys...)
				r.rids = append([]storage.RID{rid}, r.rids...)
				r.bytes += leafEntrySize(k)
				l.view, r.view = nil, nil
			}
		}
		b.bytes -= branchEntrySize(b.sepKeys[i])
		b.sepKeys[i] = r.keys[0]
		b.sepRIDs[i] = r.rids[0]
		b.bytes += branchEntrySize(b.sepKeys[i])
		t.stats.Write(3)
		return true
	}
	l, r := left.(*branch), right.(*branch)
	sepSize := branchEntrySize(b.sepKeys[i])
	if l.bytes+r.bytes+sepSize <= nodeBudget {
		// Merge: the parent separator descends between the two.
		l.sepKeys = append(l.sepKeys, b.sepKeys[i])
		l.sepRIDs = append(l.sepRIDs, b.sepRIDs[i])
		l.sepKeys = append(l.sepKeys, r.sepKeys...)
		l.sepRIDs = append(l.sepRIDs, r.sepRIDs...)
		l.children = append(l.children, r.children...)
		l.bytes += sepSize + r.bytes
		t.removeChild(b, i+1)
		t.nodes--
		t.stats.Write(2)
		return true
	}
	// Borrow through the parent (rotate separators).
	if l.bytes < r.bytes {
		for l.bytes < minBudget && len(r.sepKeys) > 1 {
			// parent sep descends to l; r's first sep ascends.
			l.sepKeys = append(l.sepKeys, b.sepKeys[i])
			l.sepRIDs = append(l.sepRIDs, b.sepRIDs[i])
			l.children = append(l.children, r.children[0])
			l.bytes += branchEntrySize(b.sepKeys[i])
			b.bytes -= branchEntrySize(b.sepKeys[i])
			b.sepKeys[i] = r.sepKeys[0]
			b.sepRIDs[i] = r.sepRIDs[0]
			b.bytes += branchEntrySize(b.sepKeys[i])
			r.bytes -= branchEntrySize(r.sepKeys[0])
			r.sepKeys = r.sepKeys[1:]
			r.sepRIDs = r.sepRIDs[1:]
			r.children = r.children[1:]
		}
	} else {
		for r.bytes < minBudget && len(l.sepKeys) > 1 {
			last := len(l.sepKeys) - 1
			r.sepKeys = append([][]byte{b.sepKeys[i]}, r.sepKeys...)
			r.sepRIDs = append([]storage.RID{b.sepRIDs[i]}, r.sepRIDs...)
			r.children = append([]node{l.children[len(l.children)-1]}, r.children...)
			r.bytes += branchEntrySize(b.sepKeys[i])
			b.bytes -= branchEntrySize(b.sepKeys[i])
			b.sepKeys[i] = l.sepKeys[last]
			b.sepRIDs[i] = l.sepRIDs[last]
			b.bytes += branchEntrySize(b.sepKeys[i])
			l.bytes -= branchEntrySize(l.sepKeys[last])
			l.sepKeys = l.sepKeys[:last]
			l.sepRIDs = l.sepRIDs[:last]
			l.children = l.children[:len(l.children)-1]
		}
	}
	t.stats.Write(3)
	return true
}

func (t *Tree) removeChild(b *branch, ci int) {
	b.bytes -= branchEntrySize(b.sepKeys[ci-1])
	b.sepKeys = append(b.sepKeys[:ci-1], b.sepKeys[ci:]...)
	b.sepRIDs = append(b.sepRIDs[:ci-1], b.sepRIDs[ci:]...)
	b.children = append(b.children[:ci], b.children[ci+1:]...)
}
