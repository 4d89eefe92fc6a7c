// Package index binds catalog index definitions to physical B+-trees: it
// builds indexes online from heap contents, maintains them under DML, and
// exposes the seek/scan primitives the executor uses.
package index

import (
	"fmt"
	"sort"

	"dyndesign/internal/btree"
	"dyndesign/internal/catalog"
	"dyndesign/internal/keyenc"
	"dyndesign/internal/storage"
	"dyndesign/internal/types"
)

// Index is one materialized secondary index.
type Index struct {
	def    catalog.IndexDef
	cols   []int // ordinals of the key columns in the table schema
	schema *types.Schema
	tree   *btree.Tree
}

// Def returns the index definition.
func (ix *Index) Def() catalog.IndexDef { return ix.def }

// KeyColumns returns the ordinals of the key columns in the table schema.
func (ix *Index) KeyColumns() []int {
	return append([]int(nil), ix.cols...)
}

// Covers reports whether every column ordinal in need is part of the
// index key, i.e. whether an index-only scan can answer a query that
// references exactly those columns.
func (ix *Index) Covers(need []int) bool {
	for _, n := range need {
		found := false
		for _, c := range ix.cols {
			if c == n {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Entries returns the number of entries (equals the table's live rows).
func (ix *Index) Entries() int64 { return ix.tree.Len() }

// SizePages returns the size of the index in pages — the SIZE(·) term of
// the design problem.
func (ix *Index) SizePages() int64 { return ix.tree.NodeCount() }

// Height returns the B+-tree height.
func (ix *Index) Height() int { return ix.tree.Height() }

// LeafPages returns the number of leaf pages; an index-only full scan
// reads approximately this many pages.
func (ix *Index) LeafPages() int64 { return ix.tree.LeafCount() }

// key builds the encoded composite key of row for this index.
func (ix *Index) key(row types.Row) ([]byte, error) {
	return ix.appendKey(make([]byte, 0, 16*len(ix.cols)), row)
}

// appendKey appends the encoded composite key of row to dst.
func (ix *Index) appendKey(dst []byte, row types.Row) ([]byte, error) {
	var err error
	for _, c := range ix.cols {
		if dst, err = keyenc.AppendValue(dst, row[c]); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// Insert adds the entry for a newly inserted heap row.
func (ix *Index) Insert(row types.Row, rid storage.RID) error {
	k, err := ix.key(row)
	if err != nil {
		return err
	}
	return ix.tree.Insert(k, rid)
}

// Delete removes the entry for a heap row that is being deleted or moved.
func (ix *Index) Delete(row types.Row, rid storage.RID) error {
	k, err := ix.key(row)
	if err != nil {
		return err
	}
	found, err := ix.tree.Delete(k, rid)
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("index %s: missing entry for rid %s", ix.def.Name(), rid)
	}
	return nil
}

// SeekPrefix calls fn for every entry whose leading key columns equal
// vals, in key order. fn receives the decoded key column values and the
// RID; returning false stops the scan.
func (ix *Index) SeekPrefix(vals []types.Value, fn func(keyVals []types.Value, rid storage.RID) bool) error {
	if len(vals) > len(ix.cols) {
		return fmt.Errorf("index %s: prefix of %d values on %d key columns", ix.def.Name(), len(vals), len(ix.cols))
	}
	prefix, err := keyenc.Encode(vals...)
	if err != nil {
		return err
	}
	var decodeErr error
	var scratch []types.Value
	ix.tree.ScanPrefix(prefix, func(k []byte, rid storage.RID) bool {
		kv, err := keyenc.DecodeInto(scratch, k)
		if err != nil {
			decodeErr = err
			return false
		}
		scratch = kv
		return fn(kv, rid)
	})
	return decodeErr
}

// ScanAll calls fn for every entry in key order — the index-only-scan
// primitive. fn receives the decoded key column values and the RID.
func (ix *Index) ScanAll(fn func(keyVals []types.Value, rid storage.RID) bool) error {
	return ix.ScanRange(nil, nil, fn)
}

// ScanRange calls fn for entries with low <= key < high; nil bounds are
// unbounded. Bounds are composite value tuples over the key prefix.
func (ix *Index) ScanRange(low, high []types.Value, fn func(keyVals []types.Value, rid storage.RID) bool) error {
	var lowKey, highKey []byte
	var err error
	if low != nil {
		if lowKey, err = keyenc.Encode(low...); err != nil {
			return err
		}
	}
	if high != nil {
		if highKey, err = keyenc.Encode(high...); err != nil {
			return err
		}
	}
	return ix.ScanEncodedRange(lowKey, highKey, fn)
}

// ScanEncodedRange calls fn for entries with lowKey <= encoded key <
// highKey (nil bounds unbounded). The executor uses this with bounds
// built by keyenc (including PrefixSuccessor for exclusive/prefix
// bounds), which avoids value-level successor arithmetic.
func (ix *Index) ScanEncodedRange(lowKey, highKey []byte, fn func(keyVals []types.Value, rid storage.RID) bool) error {
	var decodeErr error
	var scratch []types.Value
	ix.ScanKeys(lowKey, highKey, func(k []byte, rid storage.RID) bool {
		kv, err := keyenc.DecodeInto(scratch, k)
		if err != nil {
			decodeErr = err
			return false
		}
		scratch = kv
		return fn(kv, rid)
	})
	return decodeErr
}

// ScanKeys calls fn for entries with lowKey <= encoded key < highKey (nil
// bounds unbounded) with the raw encoded key, decoding nothing: the
// index-only scan filters on key bytes and decodes only what it keeps.
// The key aliases tree memory; fn must neither modify nor retain it.
func (ix *Index) ScanKeys(lowKey, highKey []byte, fn func(key []byte, rid storage.RID) bool) {
	ix.tree.ScanRange(lowKey, highKey, fn)
}

// ScanLeaves is ScanKeys(nil, nil, …) leaf by leaf (btree.ScanLeaves):
// it calls fn for every leaf in key order, on the caller, with the
// leaf's raw keys and RIDs, which fn must neither modify nor retain, and
// the leaf's derived-data slot, which the tree empties whenever the leaf
// changes. fn ends the scan by returning false.
func (ix *Index) ScanLeaves(fn func(keys [][]byte, rids []storage.RID, view *any) bool) {
	ix.tree.ScanLeaves(fn)
}

// CheckInvariants verifies the underlying tree structure.
func (ix *Index) CheckInvariants() error { return ix.tree.CheckInvariants() }

// Manager owns the materialized indexes of one table and keeps them
// consistent with heap DML.
type Manager struct {
	schema  *types.Schema
	heap    *storage.HeapFile
	indexes map[string]*Index // canonical name -> index
}

// NewManager creates an index manager for a table.
func NewManager(schema *types.Schema, heap *storage.HeapFile) *Manager {
	return &Manager{schema: schema, heap: heap, indexes: make(map[string]*Index)}
}

// Create builds and registers an index. Building an index that already
// exists is an error.
func (m *Manager) Create(def catalog.IndexDef) (*Index, error) {
	name := def.Name()
	if _, exists := m.indexes[name]; exists {
		return nil, fmt.Errorf("index %s already exists", name)
	}
	ix, err := Build(def, m.schema, m.heap)
	if err != nil {
		return nil, err
	}
	m.indexes[name] = ix
	return ix, nil
}

// Drop removes an index by canonical name.
func (m *Manager) Drop(name string) error {
	if _, exists := m.indexes[name]; !exists {
		return fmt.Errorf("index %s does not exist", name)
	}
	delete(m.indexes, name)
	return nil
}

// Get returns the index with the given canonical name.
func (m *Manager) Get(name string) (*Index, bool) {
	ix, ok := m.indexes[name]
	return ix, ok
}

// All returns the managed indexes sorted by name.
func (m *Manager) All() []*Index {
	out := make([]*Index, 0, len(m.indexes))
	for _, ix := range m.indexes {
		out = append(out, ix)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].def.Name() < out[j].def.Name() })
	return out
}

// Names returns the canonical names of the managed indexes, sorted.
func (m *Manager) Names() []string {
	out := make([]string, 0, len(m.indexes))
	for name := range m.indexes {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// OnInsert updates every index for a newly inserted row.
func (m *Manager) OnInsert(row types.Row, rid storage.RID) error {
	for _, ix := range m.indexes {
		if err := ix.Insert(row, rid); err != nil {
			return err
		}
	}
	return nil
}

// OnDelete updates every index for a deleted row.
func (m *Manager) OnDelete(row types.Row, rid storage.RID) error {
	for _, ix := range m.indexes {
		if err := ix.Delete(row, rid); err != nil {
			return err
		}
	}
	return nil
}

// OnUpdate updates every index for a row whose contents (and possibly
// RID) changed.
func (m *Manager) OnUpdate(oldRow types.Row, oldRID storage.RID, newRow types.Row, newRID storage.RID) error {
	for _, ix := range m.indexes {
		if err := ix.Delete(oldRow, oldRID); err != nil {
			return err
		}
		if err := ix.Insert(newRow, newRID); err != nil {
			return err
		}
	}
	return nil
}
