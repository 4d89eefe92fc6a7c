// Package stats builds and serves table statistics: row counts, per-column
// distinct counts, min/max, and equi-depth histograms. The what-if cost
// model uses these to estimate predicate selectivities exactly the way the
// planner does, so EXEC(S,C) estimates agree with what execution would pay.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"dyndesign/internal/keyenc"
	"dyndesign/internal/storage"
	"dyndesign/internal/types"
)

// DefaultBuckets is the default number of equi-depth histogram buckets.
const DefaultBuckets = 100

// Bucket is one equi-depth histogram bucket: it covers values in
// (previous bucket's Upper, Upper], holding Count rows over Distinct
// distinct values. The first bucket's lower bound is the column minimum,
// inclusive.
type Bucket struct {
	Upper    types.Value
	Count    int64
	Distinct int64
}

// Histogram is an equi-depth histogram over one column.
type Histogram struct {
	Min     types.Value
	Max     types.Value
	Buckets []Bucket
	Rows    int64
}

// ColumnStats aggregates the statistics of one column.
type ColumnStats struct {
	Column string
	Rows   int64
	NDV    int64
	Hist   *Histogram
}

// TableStats aggregates the statistics of one table.
type TableStats struct {
	Table    string
	Rows     int64
	RowBytes float64 // average encoded row size
	Columns  map[string]*ColumnStats
}

// Build scans the heap once and computes statistics for every column of
// the schema. numBuckets controls histogram resolution (DefaultBuckets if
// <= 0). The scan charges page reads to the heap's stats, as a real
// ANALYZE would.
func Build(table string, schema *types.Schema, heap *storage.HeapFile, numBuckets int) (*TableStats, error) {
	if numBuckets <= 0 {
		numBuckets = DefaultBuckets
	}
	// An INT column keeps its values as integers, with its least and
	// greatest value, and sorts them as packed words (keyenc.SortWords);
	// a STRING column keeps them as order-preserving keys (keyenc), read
	// from the payload bytes and sorted by Keys.Order.
	cols := schema.Columns
	n := int(heap.NumRows())
	samples := make([]sample, len(cols))
	for i, c := range cols {
		if samples[i].ints = c.Kind == types.KindInt; samples[i].ints {
			samples[i].words = make([]keyenc.Word[struct{}], 0, n)
		} else {
			samples[i].keys = keyenc.MakeKeys(n, n*keyenc.IntLen)
		}
	}
	layout := types.NewRowLayout(schema)
	var rows int64
	var bytes int64
	var scanErr error
	heap.Scan(func(rid storage.RID, payload []byte) bool {
		offs, err := layout.Locate(payload)
		if err != nil {
			scanErr = fmt.Errorf("stats: decoding row %s: %w", rid, err)
			return false
		}
		if len(offs) != len(cols) {
			scanErr = fmt.Errorf("stats: row %s has %d values, schema %d", rid, len(offs), len(cols))
			return false
		}
		for i, off := range offs {
			if err := samples[i].add(payload, off); err != nil {
				scanErr = fmt.Errorf("stats: row %s, column %s: %w", rid, cols[i].Name, err)
				return false
			}
		}
		rows++
		bytes += int64(len(payload))
		return true
	})
	if scanErr != nil {
		return nil, scanErr
	}
	ts := &TableStats{
		Table:   table,
		Rows:    rows,
		Columns: make(map[string]*ColumnStats, len(cols)),
	}
	if rows > 0 {
		ts.RowBytes = float64(bytes) / float64(rows)
	}
	for i, c := range cols {
		ts.Columns[lower(c.Name)] = samples[i].column(c.Name, numBuckets)
		samples[i] = sample{}
	}
	return ts, nil
}

// sample is one column's values as ANALYZE's scan collects them: for an
// INT column (ints), each value's bits as a word's key, with the least
// and greatest value; else as keys.
type sample struct {
	ints     bool
	words    []keyenc.Word[struct{}]
	min, max int64
	keys     keyenc.Keys
}

// add adds the value whose kind tag sits at row[off] of an encoded heap
// row. It fails on a value of another kind in an INT column, which the
// engine's statement check keeps out of its tables.
func (s *sample) add(row []byte, off int) error {
	if !s.ints {
		s.keys.Bytes = keyenc.AppendRowValue(s.keys.Bytes, row, off)
		s.keys.End()
		return nil
	}
	if k := types.Kind(row[off]); k != types.KindInt {
		return fmt.Errorf("%s value in an INT column", k)
	}
	v := types.IntAt(row, off)
	if len(s.words) == 0 || v < s.min {
		s.min = v
	}
	if len(s.words) == 0 || v > s.max {
		s.max = v
	}
	s.words = append(s.words, keyenc.Word[struct{}]{Key: uint64(v)})
	return nil
}

// column sorts the sample and computes the column's statistics from it.
// Integers are sorted as words of their offsets from the least value;
// keys are equal exactly when their values are. Either way only a
// bucket's upper bound and the minimum and maximum are decoded.
func (s *sample) column(name string, numBuckets int) *ColumnStats {
	if !s.ints {
		order := s.keys.Order()
		key := func(i int) []byte { return s.keys.Key(int(order[i])) }
		return buildColumn(name, len(order), numBuckets,
			func(i int) bool { return string(key(i)) == string(key(i-1)) },
			func(i int) types.Value { return decodeKey(key(i)) })
	}
	pk, _ := keyenc.NewPacking([]int64{s.min}, []int64{s.max}) // one part always packs
	for i, w := range s.words {
		s.words[i].Key = pk.Field(0, int64(w.Key))
	}
	words := keyenc.SortWords(s.words, pk.Bits())
	s.words = nil
	return buildColumn(name, len(words), numBuckets,
		func(i int) bool { return words[i].Key == words[i-1].Key },
		func(i int) types.Value { return types.NewInt(pk.Part(words[i].Key, 0)) })
}

func lower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}

// buildColumn computes one column's statistics from its n values in
// sorted order: same(i) reports whether value i equals value i-1, and
// value(i) returns it, called only for a bucket's upper bound and the
// minimum and maximum.
func buildColumn(name string, n, numBuckets int, same func(i int) bool, value func(i int) types.Value) *ColumnStats {
	cs := &ColumnStats{Column: name, Rows: int64(n)}
	if n == 0 {
		return cs
	}
	h := &Histogram{Min: value(0), Max: value(n - 1), Rows: int64(n)}

	perBucket := (n + numBuckets - 1) / numBuckets
	if perBucket < 1 {
		perBucket = 1
	}
	// Walk runs of equal values. A run at least as large as a bucket
	// becomes its own singleton bucket (end-biased histogram), so hot
	// values get exact equality estimates instead of being averaged with
	// their bucket neighbours.
	var ndv int64
	var cur Bucket
	curUpper := -1 // the position of cur's upper bound
	flush := func() {
		if cur.Count > 0 {
			cur.Upper = value(curUpper)
			h.Buckets = append(h.Buckets, cur)
			cur = Bucket{}
		}
	}
	i := 0
	for i < n {
		j := i + 1
		for j < n && same(j) {
			j++
		}
		runLen := int64(j - i)
		ndv++
		if runLen >= int64(perBucket) {
			flush()
			h.Buckets = append(h.Buckets, Bucket{Upper: value(i), Count: runLen, Distinct: 1})
		} else {
			curUpper = i
			cur.Count += runLen
			cur.Distinct++
			if cur.Count >= int64(perBucket) {
				flush()
			}
		}
		i = j
	}
	flush()
	cs.NDV = ndv
	cs.Hist = h
	return cs
}

// decodeKey returns the value of a one-value key that buildColumn's
// caller encoded.
func decodeKey(key []byte) types.Value {
	vals, err := keyenc.Decode(key)
	if err != nil || len(vals) != 1 {
		panic(fmt.Sprintf("stats: key % x does not hold one value: %v", key, err))
	}
	return vals[0]
}

// Column returns the stats for a column (case-insensitive), or nil.
func (ts *TableStats) Column(name string) *ColumnStats {
	return ts.Columns[lower(name)]
}

// Fingerprint hashes the statistics content — row counts, NDVs, and
// every histogram bucket — into one 64-bit value. Two TableStats with
// equal fingerprints yield the same selectivity estimates, so cost
// models use it as their statistics epoch: a refreshed ANALYZE or an
// in-place histogram mutation changes the fingerprint and invalidates
// anything cached against the old world. A nil receiver hashes to 0.
//
// The value is FNV-1a over a fixed byte encoding of the fields (an
// integer as its 8 little-endian bytes, a string as its length then its
// bytes, a value as its kind byte, integer and string). It is persisted
// (advisord records it), so the encoding and the hash must never change.
func (ts *TableStats) Fingerprint() uint64 {
	if ts == nil {
		return 0
	}
	h := uint64(fnvOffset)
	h = fnvString(h, ts.Table)
	h = fnvInt(h, ts.Rows)
	h = fnvInt(h, int64(math.Float64bits(ts.RowBytes)))
	names := make([]string, 0, len(ts.Columns))
	for name := range ts.Columns {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cs := ts.Columns[name]
		h = fnvString(h, name)
		h = fnvInt(h, cs.Rows)
		h = fnvInt(h, cs.NDV)
		if cs.Hist == nil {
			continue
		}
		h = fnvValue(h, cs.Hist.Min)
		h = fnvValue(h, cs.Hist.Max)
		h = fnvInt(h, cs.Hist.Rows)
		for _, b := range cs.Hist.Buckets {
			h = fnvValue(h, b.Upper)
			h = fnvInt(h, b.Count)
			h = fnvInt(h, b.Distinct)
		}
	}
	return h
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvZeros[n] is fnvPrime^n: FNV-1a over n zero bytes multiplies the
// hash by it, since xoring a zero byte leaves the hash as it is. Most
// integers the fingerprint hashes are small and most strings empty, so
// their high zero bytes cost one multiplication instead of one each.
var fnvZeros = func() (p [9]uint64) {
	p[0] = 1
	for n := 1; n < len(p); n++ {
		p[n] = p[n-1] * fnvPrime
	}
	return p
}()

// fnvInt hashes v's 8 little-endian bytes into h: the bytes up to the
// highest non-zero one, then the zero bytes above it at once.
func fnvInt(h uint64, v int64) uint64 {
	u := uint64(v)
	n := (bits.Len64(u) + 7) >> 3
	for range n {
		h = (h ^ u&0xff) * fnvPrime
		u >>= 8
	}
	return h * fnvZeros[8-n]
}

// fnvString hashes s's length, then its bytes, into h.
func fnvString(h uint64, s string) uint64 {
	h = fnvInt(h, int64(len(s)))
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// fnvValue hashes v's kind byte, integer and string into h.
func fnvValue(h uint64, v types.Value) uint64 {
	h = (h ^ uint64(byte(v.Kind))) * fnvPrime
	return fnvString(fnvInt(h, v.Int), v.Str)
}

// SelectivityEq estimates the fraction of rows with column = v.
func (cs *ColumnStats) SelectivityEq(v types.Value) float64 {
	if cs.Rows == 0 || cs.Hist == nil {
		return 0
	}
	h := cs.Hist
	if v.Compare(h.Min) < 0 || v.Compare(h.Max) > 0 {
		return 0
	}
	b := h.bucketFor(v)
	if b == nil || b.Distinct == 0 {
		return 0
	}
	return float64(b.Count) / float64(b.Distinct) / float64(cs.Rows)
}

// SelectivityRange estimates the fraction of rows with low <= column <
// high. A nil bound is unbounded. Partial buckets are interpolated
// linearly for integer columns and taken as half for string columns.
func (cs *ColumnStats) SelectivityRange(low, high *types.Value) float64 {
	if cs.Rows == 0 || cs.Hist == nil {
		return 0
	}
	hiFrac := 1.0
	if high != nil {
		hiFrac = cs.Hist.fracBelow(*high)
	}
	loFrac := 0.0
	if low != nil {
		loFrac = cs.Hist.fracBelow(*low)
	}
	frac := hiFrac - loFrac
	if frac < 0 {
		return 0
	}
	if frac > 1 {
		return 1
	}
	return frac
}

// bucketFor returns the bucket containing v, or nil: the first whose
// upper bound is not below v. An INT value and an INT bound compare as
// integers, without the generic Value.Compare.
func (h *Histogram) bucketFor(v types.Value) *Bucket {
	lo, hi := 0, len(h.Buckets)
	for lo < hi {
		mid := (lo + hi) / 2
		var less bool
		if u := &h.Buckets[mid].Upper; u.Kind == types.KindInt && v.Kind == types.KindInt {
			less = u.Int < v.Int
		} else {
			less = u.Compare(v) < 0
		}
		if less {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= len(h.Buckets) {
		return nil
	}
	return &h.Buckets[lo]
}

// fracBelow estimates the fraction of rows with value < v.
func (h *Histogram) fracBelow(v types.Value) float64 {
	if v.Compare(h.Min) <= 0 {
		return 0
	}
	if v.Compare(h.Max) > 0 {
		return 1
	}
	var below int64
	lowerBound := h.Min
	for i := range h.Buckets {
		b := &h.Buckets[i]
		if b.Upper.Compare(v) < 0 {
			below += b.Count
			lowerBound = b.Upper
			continue
		}
		// v falls in this bucket: interpolate.
		below += int64(float64(b.Count) * interpolate(lowerBound, b.Upper, v))
		break
	}
	return float64(below) / float64(h.Rows)
}

// interpolate estimates the fraction of the bucket (lower, upper] that is
// below v.
func interpolate(lower, upper, v types.Value) float64 {
	if v.Kind == types.KindInt && lower.Kind == types.KindInt && upper.Kind == types.KindInt {
		span := upper.Int - lower.Int
		if span <= 0 {
			return 0
		}
		f := float64(v.Int-lower.Int) / float64(span)
		if f < 0 {
			return 0
		}
		if f > 1 {
			return 1
		}
		return f
	}
	return 0.5
}
