package index

import (
	"fmt"

	"dyndesign/internal/btree"
	"dyndesign/internal/catalog"
	"dyndesign/internal/keyenc"
	"dyndesign/internal/storage"
	"dyndesign/internal/types"
)

// Build constructs an index over the current contents of heap. It is the
// online index build: one full heap scan, a sort, and a bulk load — all
// charged to the heap's access stats, which is exactly the TRANS cost of
// adding this index to a configuration.
//
// The sort takes one of two paths, decided once per build. When every
// key column is INT in the schema, the scan keeps each row's key parts
// as integers, with each part's least and greatest value. If every row
// held INT values there and the parts' ranges pack into one word
// (keyenc.Packing), the (word, RID) records are radix-sorted
// (keyenc.SortWords) and each leaf's keys are written from the words
// straight into that leaf's arena. Otherwise — a STRING key column, a
// row with a value of another kind, or parts wider than 64 bits in all —
// the keys are encoded into one arena and sorted by Keys.Order, reusing
// what the scan collected: the heap is scanned once either way. The
// heap yields RIDs in ascending order and both sorts are stable, so
// sorting by key alone gives the tree's (key, RID) order, and both paths
// build the same tree. Everything but the tree is allocated per build.
func Build(def catalog.IndexDef, schema *types.Schema, heap *storage.HeapFile) (*Index, error) {
	ix, _, err := build(def, schema, heap, true)
	return ix, err
}

// build is Build, on the packed path only where pack is set, and it
// reports whether that path built the tree.
func build(def catalog.IndexDef, schema *types.Schema, heap *storage.HeapFile, pack bool) (*Index, bool, error) {
	cols := make([]int, len(def.Columns))
	ints := pack
	for i, name := range def.Columns {
		ord := schema.ColumnIndex(name)
		if ord < 0 {
			return nil, false, fmt.Errorf("index %s: table %q has no column %q", def.Name(), def.Table, name)
		}
		cols[i] = ord
		ints = ints && schema.Columns[ord].Kind == types.KindInt
	}
	ix := &Index{
		def:    def,
		cols:   cols,
		schema: schema,
		tree:   btree.New(heap.Stats()),
	}

	n := int(heap.NumRows())
	in := buildInput{recs: make([]keyenc.Word[storage.RID], 0, n), ints: ints}
	if ints {
		in.rest = make([]int64, 0, n*(len(cols)-1))
		in.mins, in.maxs = make([]int64, len(cols)), make([]int64, len(cols))
	} else {
		in.keys = keyenc.MakeKeys(n, n*keyenc.IntLen*len(cols))
	}
	layout := types.NewRowLayout(schema)
	var scanErr error
	heap.Scan(func(rid storage.RID, payload []byte) bool {
		if err := in.scanRow(cols, layout, rid, payload); err != nil {
			scanErr = fmt.Errorf("index %s: decoding row %s: %w", def.Name(), rid, err)
			return false
		}
		return true
	})
	if scanErr != nil {
		return nil, false, scanErr
	}
	var err error
	pk, fits := keyenc.NewPacking(in.mins, in.maxs)
	packed := in.ints && fits
	if packed {
		err = ix.loadPacked(&in, &pk)
	} else {
		err = ix.loadKeys(&in)
	}
	if err != nil {
		return nil, false, err
	}
	// Charge the external-sort I/O of the build: a two-pass merge sort
	// reads and writes the run files twice. The sort itself ran in
	// memory, but an on-disk engine at this scale would pay these pages,
	// and the what-if cost model (cost.BuildCost) predicts them — the
	// two must agree for advisor estimates to match measurements.
	leaves := ix.tree.LeafCount()
	heap.Stats().Read(2 * leaves)
	heap.Stats().Write(2 * leaves)
	return ix, packed, nil
}

// buildInput is what a build's heap scan collects: a record per row, in
// heap order, whose Val is the row's RID, and the rows' keys.
type buildInput struct {
	recs []keyenc.Word[storage.RID]
	// While ints is set, each record's Key holds the bits of its row's
	// first key part, rest holds the rows' further parts row after row,
	// and mins and maxs hold each part's least and greatest value. A row
	// with a non-INT key value moves the parts into keys and clears ints.
	ints       bool
	rest       []int64
	mins, maxs []int64
	keys       keyenc.Keys
}

// scanRow adds the row rid with the encoded payload, whose key columns
// are cols, to in. It fails on exactly the payloads DecodeRow rejects,
// with DecodeRow's error, and on a row without a value for a key column.
func (in *buildInput) scanRow(cols []int, layout *types.RowLayout, rid storage.RID, payload []byte) error {
	offs, err := layout.Locate(payload)
	if err != nil {
		return err
	}
	for _, c := range cols {
		if c >= len(offs) {
			return fmt.Errorf("row of %d values has no column %d", len(offs), c)
		}
		if in.ints && types.Kind(payload[offs[c]]) != types.KindInt {
			in.encodeInts(len(cols))
		}
	}
	if !in.ints {
		for _, c := range cols {
			in.keys.Bytes = keyenc.AppendRowValue(in.keys.Bytes, payload, offs[c])
		}
		in.keys.End()
		in.recs = append(in.recs, keyenc.Word[storage.RID]{Val: rid})
		return nil
	}
	first := len(in.recs) == 0
	for p, c := range cols {
		v := types.IntAt(payload, offs[c])
		if p == 0 {
			in.recs = append(in.recs, keyenc.Word[storage.RID]{Key: uint64(v), Val: rid})
		} else {
			in.rest = append(in.rest, v)
		}
		if first || v < in.mins[p] {
			in.mins[p] = v
		}
		if first || v > in.maxs[p] {
			in.maxs[p] = v
		}
	}
	return nil
}

// encodeInts moves the INT key parts collected so far into keys, in the
// arena's INT sizing, and clears ints.
func (in *buildInput) encodeInts(parts int) {
	n := cap(in.recs)
	in.keys = keyenc.MakeKeys(n, n*keyenc.IntLen*parts)
	for i := range in.recs {
		in.keys.Bytes = keyenc.AppendInt(in.keys.Bytes, int64(in.recs[i].Key))
		for _, v := range in.rest[i*(parts-1) : (i+1)*(parts-1)] {
			in.keys.Bytes = keyenc.AppendInt(in.keys.Bytes, v)
		}
		in.keys.End()
	}
	in.ints, in.rest = false, nil
}

// loadPacked bulk-loads the tree from in's INT parts packed by pk: the
// (word, RID) records are radix-sorted, and each leaf's keys are written
// from the sorted words into the leaf's arena.
func (ix *Index) loadPacked(in *buildInput, pk *keyenc.Packing) error {
	parts := len(ix.cols)
	for i := range in.recs {
		w := pk.Field(0, int64(in.recs[i].Key))
		for p, v := range in.rest[i*(parts-1) : (i+1)*(parts-1)] {
			w |= pk.Field(p+1, v)
		}
		in.recs[i].Key = w
	}
	in.rest = nil
	sorted := keyenc.SortWords(in.recs, pk.Bits())
	return ix.tree.BulkLoadFixed(len(sorted), parts*keyenc.IntLen, func(dst []byte, i int) ([]byte, storage.RID) {
		return pk.AppendKey(dst, sorted[i].Key), sorted[i].Val
	})
}

// loadKeys bulk-loads the tree from in's keys, encoding its INT parts
// first if the scan kept them, through Keys.Order's permutation.
func (ix *Index) loadKeys(in *buildInput) error {
	if in.ints {
		in.encodeInts(len(ix.cols))
	}
	order := in.keys.Order()
	return ix.tree.BulkLoadFunc(len(order), func(i int) int { return len(in.keys.Key(int(order[i]))) },
		func(dst []byte, i int) ([]byte, storage.RID) {
			return append(dst, in.keys.Key(int(order[i]))...), in.recs[order[i]].Val
		})
}
