package engine

import (
	"bytes"
	"fmt"
	"math"
	"slices"

	"dyndesign/internal/keyenc"
	"dyndesign/internal/sql"
	"dyndesign/internal/types"
)

// Residual predicates are tested on encoded bytes, never on decoded rows:
// a heap scan tests each payload's values in place and decodes only the
// rows that match, and an index-only scan tests each key's column parts
// and decodes only the keys that match.

// bytePred is one residual conjunct compiled for byte-level testing.
type bytePred struct {
	// pos is the column ordinal in a heap row, or the key position in an
	// index key.
	pos  int
	kind types.Kind
	in   bool // an IN list
	// An INT predicate holds for lo <= v <= hi and, for an IN list, v
	// among the sorted ints.
	lo, hi int64
	ints   []int64
	// A STRING value compares as bytes, by op against b or as a member of
	// strs: a row's string bytes against the literal's, a key part against
	// the literal's order-preserving encoding.
	op   sql.CompareOp
	b    []byte
	strs [][]byte
}

func (p *bytePred) holdsInt(v int64) bool {
	return p.lo <= v && v <= p.hi && (!p.in || p.inInts(v))
}

// inInts stays out of line so that holdsInt inlines into the scan loops.
//
//go:noinline
func (p *bytePred) inInts(v int64) bool {
	_, found := slices.BinarySearch(p.ints, v)
	return found
}

func (p *bytePred) holdsBytes(v []byte) bool {
	if p.in {
		_, found := slices.BinarySearchFunc(p.strs, v, bytes.Compare)
		return found
	}
	c := bytes.Compare(v, p.b)
	switch p.op {
	case sql.OpEq:
		return c == 0
	case sql.OpLt:
		return c < 0
	case sql.OpLe:
		return c <= 0
	case sql.OpGt:
		return c > 0
	case sql.OpGe:
		return c >= 0
	default:
		return false
	}
}

// compileBytePred compiles conjunct c on a column of the given kind at
// position pos. With keyed set, STRING literals are compared in their key
// encoding.
func compileBytePred(c sql.Comparison, pos int, kind types.Kind, keyed bool) (bytePred, error) {
	p := bytePred{pos: pos, kind: kind, in: c.Op == sql.OpIn, op: c.Op}
	lits := []types.Value{c.Value}
	if p.in {
		lits = c.Values
	}
	for _, v := range lits {
		if v.Kind != kind {
			return bytePred{}, fmt.Errorf("engine: predicate on %q compares %s to %s", c.Column, kind, v.Kind)
		}
		if kind == types.KindInt {
			p.ints = append(p.ints, v.Int)
			continue
		}
		b := []byte(v.Str)
		if keyed {
			b, _ = keyenc.AppendValue(nil, v) // a STRING value always encodes
		}
		p.b = b
		p.strs = append(p.strs, b)
	}
	slices.Sort(p.ints)
	slices.SortFunc(p.strs, bytes.Compare)
	switch {
	case kind != types.KindInt:
	case !p.in:
		p.lo, p.hi = intRange(c.Op, c.Value.Int)
	case len(p.ints) > 0:
		p.lo, p.hi = p.ints[0], p.ints[len(p.ints)-1]
	default: // an empty IN list holds for nothing
		p.lo, p.hi = 1, 0
	}
	return p, nil
}

// intRange returns the inclusive bounds of the ints v with v op x; lo > hi
// when there are none.
func intRange(op sql.CompareOp, x int64) (lo, hi int64) {
	switch op {
	case sql.OpEq:
		return x, x
	case sql.OpLt:
		if x == math.MinInt64 {
			return 1, 0
		}
		return math.MinInt64, x - 1
	case sql.OpLe:
		return math.MinInt64, x
	case sql.OpGt:
		if x == math.MaxInt64 {
			return 1, 0
		}
		return x + 1, math.MaxInt64
	case sql.OpGe:
		return x, math.MaxInt64
	default:
		return 1, 0
	}
}

// rowFilter tests residual predicates on encoded heap rows.
type rowFilter struct {
	layout *types.RowLayout
	preds  []bytePred
	width  int // the schema's number of columns, the width of a decoded row
	// viewCols lists the columns the predicates read when a page's column
	// view can serve them all (colview.go), else it is nil.
	viewCols []colRef
	scratch  viewScratch
}

func newRowFilter(schema *types.Schema, residual []sql.Comparison) (*rowFilter, error) {
	f := &rowFilter{layout: types.NewRowLayout(schema), width: schema.Len()}
	for _, c := range residual {
		ord := schema.ColumnIndex(c.Column)
		if ord < 0 {
			return nil, fmt.Errorf("engine: unknown column %q", c.Column)
		}
		p, err := compileBytePred(c, ord, schema.Columns[ord].Kind, false)
		if err != nil {
			return nil, err
		}
		f.preds = append(f.preds, p)
	}
	f.viewCols = viewCols(f.preds, nil)
	return f, nil
}

// viewCols returns the distinct columns preds read, with offs[i] the
// byte offset of pred i's key part (nil for heap rows), or nil unless
// there are predicates and a column view can serve them all: each one is
// on an INT column, at a fixed offset in a key.
func viewCols(preds []bytePred, offs []int) []colRef {
	var cols []colRef
	for i, p := range preds {
		c := colRef{pos: p.pos, off: -1}
		if offs != nil {
			c.off = offs[i]
		}
		if p.kind != types.KindInt || (offs != nil && c.off < 0) {
			return nil
		}
		if !slices.Contains(cols, c) {
			cols = append(cols, c)
		}
	}
	return cols
}

// match reports whether the encoded row satisfies every predicate, tested
// in order. It fails on a payload DecodeRow rejects, with DecodeRow's
// error, and on a row whose value a predicate reads is missing or of the
// wrong kind.
func (f *rowFilter) match(payload []byte) (bool, error) {
	if len(f.preds) == 0 {
		return true, nil
	}
	offs, err := f.layout.Locate(payload)
	if err != nil {
		return false, err
	}
	for i := range f.preds {
		p := &f.preds[i]
		if p.pos >= len(offs) || types.Kind(payload[offs[p.pos]]) != p.kind {
			return false, fmt.Errorf("engine: row has no %s value at column %d", p.kind, p.pos)
		}
		var ok bool
		if p.kind == types.KindInt {
			ok = p.holdsInt(types.IntAt(payload, offs[p.pos]))
		} else {
			ok = p.holdsBytes(types.StringAt(payload, offs[p.pos]))
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// keyPred is a residual predicate on one column of an index key.
type keyPred struct {
	bytePred
	// off is the byte offset of the column's part in every key when the
	// key columns before it are all INTs, else -1.
	off int
}

// keyFilter tests residual predicates on encoded index keys.
type keyFilter []keyPred

// view returns the predicates and the key parts a leaf's column view
// serves, or nils when it cannot serve them all.
func (f keyFilter) view() ([]bytePred, []colRef) {
	preds := make([]bytePred, len(f))
	offs := make([]int, len(f))
	for i, p := range f {
		preds[i], offs[i] = p.bytePred, p.off
	}
	if cols := viewCols(preds, offs); cols != nil {
		return preds, cols
	}
	return nil, nil
}

// newKeyFilter compiles the residual over an index keyed on the schema
// columns keyCols. Every residual column must be a key column.
func newKeyFilter(schema *types.Schema, keyCols []int, residual []sql.Comparison) (keyFilter, error) {
	var f keyFilter
	for _, c := range residual {
		ord := schema.ColumnIndex(c.Column)
		if ord < 0 {
			return nil, fmt.Errorf("engine: unknown column %q", c.Column)
		}
		pos := slices.Index(keyCols, ord)
		if pos < 0 {
			return nil, fmt.Errorf("engine: covering plan has residual on uncovered column")
		}
		p, err := compileBytePred(c, pos, schema.Columns[ord].Kind, true)
		if err != nil {
			return nil, err
		}
		off := 0
		for _, kc := range keyCols[:pos] {
			if schema.Columns[kc].Kind != types.KindInt {
				off = -1
				break
			}
			off += keyenc.IntLen
		}
		f = append(f, keyPred{bytePred: p, off: off})
	}
	return f, nil
}

// match reports whether the encoded key satisfies every predicate, tested
// in order. An INT part at its fixed offset is read in place; any other
// part is found by walking the parts before it. A part that does not
// parse, or holds a value of the wrong kind, is an error.
func (f keyFilter) match(key []byte) (bool, error) {
	for i := range f {
		p := &f[i]
		if p.kind == types.KindInt {
			if v, ok := keyenc.IntAt(key, p.off); ok {
				if !p.holdsInt(v) {
					return false, nil
				}
				continue
			}
		}
		start := 0
		for j := 0; j < p.pos; j++ {
			_, n, err := keyenc.ValueSpan(key[start:])
			if err != nil {
				return false, err
			}
			start += n
		}
		kind, n, err := keyenc.ValueSpan(key[start:])
		if err != nil {
			return false, err
		}
		if kind != p.kind {
			return false, fmt.Errorf("engine: index key has no %s value at position %d", p.kind, p.pos)
		}
		var ok bool
		if kind == types.KindInt {
			v, _ := keyenc.IntAt(key, start)
			ok = p.holdsInt(v)
		} else {
			ok = p.holdsBytes(key[start : start+n])
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}
