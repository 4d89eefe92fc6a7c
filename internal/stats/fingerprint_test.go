package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"dyndesign/internal/types"
)

// referenceFingerprint is Fingerprint as first written: FNV-1a fed one
// byte at a time through an accumulator. The value is persisted, so the
// fast path must reproduce it bit for bit.
func referenceFingerprint(ts *TableStats) uint64 {
	if ts == nil {
		return 0
	}
	h := refFNV{}
	h.string(ts.Table)
	h.int(ts.Rows)
	h.int(int64(math.Float64bits(ts.RowBytes)))
	names := make([]string, 0, len(ts.Columns))
	for name := range ts.Columns {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cs := ts.Columns[name]
		h.string(name)
		h.int(cs.Rows)
		h.int(cs.NDV)
		if cs.Hist == nil {
			continue
		}
		h.value(cs.Hist.Min)
		h.value(cs.Hist.Max)
		h.int(cs.Hist.Rows)
		for _, b := range cs.Hist.Buckets {
			h.value(b.Upper)
			h.int(b.Count)
			h.int(b.Distinct)
		}
	}
	return h.sum()
}

type refFNV struct {
	h       uint64
	started bool
}

func (f *refFNV) byte(b byte) {
	if !f.started {
		f.h, f.started = fnvOffset, true
	}
	f.h = (f.h ^ uint64(b)) * fnvPrime
}

func (f *refFNV) int(v int64) {
	for i := 0; i < 8; i++ {
		f.byte(byte(v >> (8 * i)))
	}
}

func (f *refFNV) string(s string) {
	f.int(int64(len(s)))
	for i := 0; i < len(s); i++ {
		f.byte(s[i])
	}
}

func (f *refFNV) value(v types.Value) {
	f.byte(byte(v.Kind))
	f.int(v.Int)
	f.string(v.Str)
}

func (f *refFNV) sum() uint64 {
	if !f.started {
		return fnvOffset
	}
	return f.h
}

// fingerprintFixture builds statistics over an INT column with values
// spread across every byte width (negative, zero, up to the extremes)
// and a STRING column with empty and long strings.
func fingerprintFixture(t testing.TB, seed int64) *TableStats {
	rng := rand.New(rand.NewSource(seed))
	schema := types.MustSchema(
		types.Column{Name: "a", Kind: types.KindInt},
		types.Column{Name: "S", Kind: types.KindString},
	)
	ints := []int64{0, 1, -1, 255, 256, 1 << 31, -(1 << 40), math.MaxInt64, math.MinInt64}
	strs := []string{"", "x", "a longer string with a zero \x00 byte"}
	var rows []types.Row
	for i := 0; i < 3000; i++ {
		v := ints[rng.Intn(len(ints))]
		if rng.Intn(2) == 0 {
			v = rng.Int63n(1<<uint(rng.Intn(63))) - rng.Int63n(1000)
		}
		rows = append(rows, types.Row{types.NewInt(v), types.NewString(strs[rng.Intn(len(strs))])})
	}
	ts, err := Build("T", schema, buildHeap(t, rows), 37)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// TestFingerprintMatchesReference holds Fingerprint to the byte-at-a-time
// reference on nil, empty and built statistics, and after in-place
// mutations of each field it hashes: equal values throughout, and every
// mutation changes the value.
func TestFingerprintMatchesReference(t *testing.T) {
	check := func(what string, ts *TableStats) uint64 {
		t.Helper()
		got, want := ts.Fingerprint(), referenceFingerprint(ts)
		if got != want {
			t.Fatalf("%s: Fingerprint %#x, reference %#x", what, got, want)
		}
		return got
	}
	check("nil", nil)
	check("empty", &TableStats{})
	check("column without histogram", &TableStats{Table: "t", Rows: -7, RowBytes: -0.0,
		Columns: map[string]*ColumnStats{"c": {Column: "c", Rows: 1 << 62}}})
	empty, err := Build("e", twoColSchema(), buildHeap(t, nil), 0)
	if err != nil {
		t.Fatal(err)
	}
	check("empty table", empty)

	for seed := int64(0); seed < 4; seed++ {
		ts := fingerprintFixture(t, seed)
		last := check("built", ts)
		a, s := ts.Columns["a"].Hist, ts.Columns["s"].Hist
		mutations := []struct {
			what string
			fn   func()
		}{
			{"row count", func() { ts.Rows++ }},
			{"row bytes", func() { ts.RowBytes = math.Float64frombits(math.Float64bits(ts.RowBytes) ^ 1) }},
			{"table name", func() { ts.Table += "x" }},
			{"NDV", func() { ts.Columns["a"].NDV ^= 1 << 40 }},
			{"bucket count", func() { a.Buckets[len(a.Buckets)/2].Count++ }},
			{"bucket distinct", func() { a.Buckets[0].Distinct += 256 }},
			{"bucket bound", func() { a.Buckets[1].Upper = types.NewInt(a.Buckets[1].Upper.Int - 1) }},
			{"high byte", func() { a.Buckets[2].Count ^= math.MinInt64 }},
			{"string bound", func() { s.Buckets[0].Upper = types.NewString(s.Buckets[0].Upper.Str + "\x00") }},
			{"histogram max", func() { a.Max = types.NewInt(a.Max.Int ^ 1) }},
			{"histogram dropped", func() { ts.Columns["s"].Hist = nil }},
		}
		for _, mu := range mutations {
			mu.fn()
			got := check(mu.what, ts)
			if got == last {
				t.Fatalf("seed %d: mutating the %s left the fingerprint at %#x", seed, mu.what, got)
			}
			last = got
		}
	}
}

// BenchmarkFingerprint hashes statistics of four INT columns at 100
// buckets each, about 13 KB of encoded fields: the solve_lattice table's
// shape, whose fingerprint every problem assembly computes.
func BenchmarkFingerprint(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	schema := types.MustSchema(
		types.Column{Name: "a", Kind: types.KindInt},
		types.Column{Name: "b", Kind: types.KindInt},
		types.Column{Name: "c", Kind: types.KindInt},
		types.Column{Name: "d", Kind: types.KindInt},
	)
	var rows []types.Row
	for i := 0; i < 20000; i++ {
		rows = append(rows, types.Row{types.NewInt(rng.Int63n(250000)), types.NewInt(rng.Int63n(250000)),
			types.NewInt(rng.Int63n(250000)), types.NewInt(rng.Int63n(250000))})
	}
	ts, err := Build("T", schema, buildHeap(b, rows), DefaultBuckets)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("fast", func(b *testing.B) {
		for range b.N {
			ts.Fingerprint()
		}
	})
	b.Run("reference", func(b *testing.B) {
		for range b.N {
			referenceFingerprint(ts)
		}
	})
}
