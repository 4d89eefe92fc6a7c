package stats

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"dyndesign/internal/storage"
	"dyndesign/internal/types"
)

func buildHeap(t testing.TB, rows []types.Row) *storage.HeapFile {
	t.Helper()
	heap := storage.NewHeapFile(nil)
	for _, r := range rows {
		payload, err := types.EncodeRow(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := heap.Insert(payload); err != nil {
			t.Fatal(err)
		}
	}
	return heap
}

func twoColSchema() *types.Schema {
	return types.MustSchema(
		types.Column{Name: "a", Kind: types.KindInt},
		types.Column{Name: "s", Kind: types.KindString},
	)
}

func TestBuildBasics(t *testing.T) {
	var rows []types.Row
	for i := 0; i < 1000; i++ {
		rows = append(rows, types.Row{types.NewInt(int64(i % 100)), types.NewString("x")})
	}
	ts, err := Build("t", twoColSchema(), buildHeap(t, rows), 10)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Rows != 1000 {
		t.Errorf("Rows = %d", ts.Rows)
	}
	if ts.RowBytes <= 0 {
		t.Errorf("RowBytes = %f", ts.RowBytes)
	}
	cs := ts.Column("a")
	if cs == nil {
		t.Fatal("no stats for column a")
	}
	if cs.NDV != 100 {
		t.Errorf("NDV = %d, want 100", cs.NDV)
	}
	if cs.Hist.Min.Int != 0 || cs.Hist.Max.Int != 99 {
		t.Errorf("min/max = %v/%v", cs.Hist.Min, cs.Hist.Max)
	}
	// Case-insensitive lookup.
	if ts.Column("A") == nil {
		t.Error("case-insensitive column lookup failed")
	}
	if ts.Column("zzz") != nil {
		t.Error("lookup of missing column returned stats")
	}
}

func TestBuildEmptyTable(t *testing.T) {
	ts, err := Build("t", twoColSchema(), storage.NewHeapFile(nil), 10)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Rows != 0 {
		t.Errorf("Rows = %d", ts.Rows)
	}
	cs := ts.Column("a")
	if cs == nil || cs.Rows != 0 {
		t.Fatalf("empty column stats = %+v", cs)
	}
	if got := cs.SelectivityEq(types.NewInt(5)); got != 0 {
		t.Errorf("empty SelectivityEq = %f", got)
	}
	if got := cs.SelectivityRange(nil, nil); got != 0 {
		t.Errorf("empty SelectivityRange = %f", got)
	}
}

func TestSelectivityEqUniform(t *testing.T) {
	// Uniform values 0..499 over 5000 rows: each value ~10 rows, eq
	// selectivity ~1/500.
	rng := rand.New(rand.NewSource(17))
	var rows []types.Row
	for i := 0; i < 5000; i++ {
		rows = append(rows, types.Row{types.NewInt(int64(rng.Intn(500))), types.NewString("x")})
	}
	ts, err := Build("t", twoColSchema(), buildHeap(t, rows), DefaultBuckets)
	if err != nil {
		t.Fatal(err)
	}
	cs := ts.Column("a")
	got := cs.SelectivityEq(types.NewInt(250))
	want := 1.0 / 500
	if got < want/3 || got > want*3 {
		t.Errorf("SelectivityEq = %g, want ~%g", got, want)
	}
	// Out of range values have zero selectivity.
	if cs.SelectivityEq(types.NewInt(-5)) != 0 || cs.SelectivityEq(types.NewInt(10000)) != 0 {
		t.Error("out-of-range selectivity not 0")
	}
}

func TestSelectivityEqSkewed(t *testing.T) {
	// One hot value (90%) and many cold ones: the hot value's estimate
	// must be much larger than a cold one's.
	var rows []types.Row
	for i := 0; i < 10000; i++ {
		v := int64(7)
		if i%10 == 0 {
			v = int64(1000 + i)
		}
		rows = append(rows, types.Row{types.NewInt(v), types.NewString("x")})
	}
	ts, _ := Build("t", twoColSchema(), buildHeap(t, rows), DefaultBuckets)
	cs := ts.Column("a")
	hot := cs.SelectivityEq(types.NewInt(7))
	cold := cs.SelectivityEq(types.NewInt(1010))
	if hot < 0.5 {
		t.Errorf("hot value selectivity = %g, want ~0.9", hot)
	}
	if cold > 0.01 {
		t.Errorf("cold value selectivity = %g, want tiny", cold)
	}
}

func TestSelectivityRange(t *testing.T) {
	// Values exactly 0..999 once each.
	var rows []types.Row
	for i := 0; i < 1000; i++ {
		rows = append(rows, types.Row{types.NewInt(int64(i)), types.NewString("x")})
	}
	ts, _ := Build("t", twoColSchema(), buildHeap(t, rows), 50)
	cs := ts.Column("a")
	lo, hi := types.NewInt(100), types.NewInt(300)
	got := cs.SelectivityRange(&lo, &hi)
	if math.Abs(got-0.2) > 0.05 {
		t.Errorf("range [100,300) selectivity = %g, want ~0.2", got)
	}
	// Unbounded ranges.
	if got := cs.SelectivityRange(nil, nil); math.Abs(got-1.0) > 0.01 {
		t.Errorf("unbounded selectivity = %g", got)
	}
	if got := cs.SelectivityRange(&lo, nil); math.Abs(got-0.9) > 0.05 {
		t.Errorf("[100,inf) selectivity = %g, want ~0.9", got)
	}
	if got := cs.SelectivityRange(nil, &hi); math.Abs(got-0.3) > 0.05 {
		t.Errorf("(-inf,300) selectivity = %g, want ~0.3", got)
	}
	// Inverted range clamps to 0.
	if got := cs.SelectivityRange(&hi, &lo); got != 0 {
		t.Errorf("inverted range = %g", got)
	}
}

func TestHotValueNeverStraddlesBuckets(t *testing.T) {
	// 50% of rows share one value; the equality estimate must see the
	// whole spike even with many buckets.
	var rows []types.Row
	for i := 0; i < 2000; i++ {
		v := int64(i)
		if i%2 == 0 {
			v = 500
		}
		rows = append(rows, types.Row{types.NewInt(v), types.NewString("x")})
	}
	ts, _ := Build("t", twoColSchema(), buildHeap(t, rows), 64)
	got := ts.Column("a").SelectivityEq(types.NewInt(500))
	if got < 0.4 {
		t.Errorf("hot value estimate = %g, want ~0.5", got)
	}
}

func TestStringColumnStats(t *testing.T) {
	var rows []types.Row
	words := []string{"apple", "banana", "cherry", "date"}
	for i := 0; i < 400; i++ {
		rows = append(rows, types.Row{types.NewInt(0), types.NewString(words[i%4])})
	}
	ts, _ := Build("t", twoColSchema(), buildHeap(t, rows), 10)
	cs := ts.Column("s")
	if cs.NDV != 4 {
		t.Errorf("string NDV = %d", cs.NDV)
	}
	got := cs.SelectivityEq(types.NewString("banana"))
	if math.Abs(got-0.25) > 0.1 {
		t.Errorf("string eq selectivity = %g, want ~0.25", got)
	}
}

func TestNDVSumAcrossBuckets(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	distinct := make(map[int64]bool)
	var rows []types.Row
	for i := 0; i < 3000; i++ {
		v := int64(rng.Intn(700))
		distinct[v] = true
		rows = append(rows, types.Row{types.NewInt(v), types.NewString("x")})
	}
	ts, _ := Build("t", twoColSchema(), buildHeap(t, rows), 30)
	if got := ts.Column("a").NDV; got != int64(len(distinct)) {
		t.Errorf("NDV = %d, want %d (exact)", got, len(distinct))
	}
}

func TestSelectivitySumsToOneProperty(t *testing.T) {
	// The sum of eq selectivities over all distinct values approximates 1.
	rng := rand.New(rand.NewSource(8))
	var rows []types.Row
	vals := make(map[int64]bool)
	for i := 0; i < 2000; i++ {
		v := int64(rng.Intn(200))
		vals[v] = true
		rows = append(rows, types.Row{types.NewInt(v), types.NewString("x")})
	}
	ts, _ := Build("t", twoColSchema(), buildHeap(t, rows), 20)
	cs := ts.Column("a")
	sum := 0.0
	for v := range vals {
		sum += cs.SelectivityEq(types.NewInt(v))
	}
	if math.Abs(sum-1.0) > 0.1 {
		t.Errorf("sum of eq selectivities = %g, want ~1", sum)
	}
}

func TestBucketCountRespected(t *testing.T) {
	var rows []types.Row
	for i := 0; i < 10000; i++ {
		rows = append(rows, types.Row{types.NewInt(int64(i)), types.NewString("x")})
	}
	ts, _ := Build("t", twoColSchema(), buildHeap(t, rows), 16)
	nb := len(ts.Column("a").Hist.Buckets)
	if nb < 8 || nb > 32 {
		t.Errorf("bucket count = %d, want ~16", nb)
	}
}

// referenceColumn is the oracle of TestBuildMatchesSortSliceReference:
// one column's statistics from its decoded values, sorted by sort.Slice
// with Value.Compare, in runs of Value.Equal values.
func referenceColumn(name string, vals []types.Value, numBuckets int) *ColumnStats {
	sort.Slice(vals, func(i, j int) bool { return vals[i].Compare(vals[j]) < 0 })
	h := &Histogram{Min: vals[0], Max: vals[len(vals)-1], Rows: int64(len(vals))}
	perBucket := max((len(vals)+numBuckets-1)/numBuckets, 1)
	var ndv int64
	var cur Bucket
	flush := func() {
		if cur.Count > 0 {
			h.Buckets = append(h.Buckets, cur)
			cur = Bucket{}
		}
	}
	for i := 0; i < len(vals); {
		j := i + 1
		for j < len(vals) && vals[j].Equal(vals[i]) {
			j++
		}
		ndv++
		if run := int64(j - i); run >= int64(perBucket) {
			flush()
			h.Buckets = append(h.Buckets, Bucket{Upper: vals[i], Count: run, Distinct: 1})
		} else {
			cur.Upper = vals[i]
			cur.Count += run
			cur.Distinct++
			if cur.Count >= int64(perBucket) {
				flush()
			}
		}
		i = j
	}
	flush()
	return &ColumnStats{Column: name, Rows: int64(len(vals)), NDV: ndv, Hist: h}
}

// TestBuildMatchesSortSliceReference: statistics built through the
// radix sorters — packed words for INT columns, keys for STRING ones —
// equal, bucket for bucket and in Fingerprint, those built from each
// column's values sorted by sort.Slice with Value.Compare: on INT
// columns with negative values, one value everywhere (no pass) and the
// whole int64 range (64-bit words), and on STRING columns with embedded
// 0x00 bytes and long shared prefixes.
func TestBuildMatchesSortSliceReference(t *testing.T) {
	schema := types.MustSchema(
		types.Column{Name: "a", Kind: types.KindInt},
		types.Column{Name: "s", Kind: types.KindString},
		types.Column{Name: "w", Kind: types.KindInt},
		types.Column{Name: "e", Kind: types.KindInt},
		types.Column{Name: "m", Kind: types.KindInt},
	)
	extremes := []int64{math.MinInt64, math.MaxInt64, -1, 0}
	rng := rand.New(rand.NewSource(11))
	strs := []string{"", "\x00", "\x00\x00", "x", "x\x00", "x\x00y", "xy", "y\xff",
		"shared prefix, longer than a radix key: a", "shared prefix, longer than a radix key: a\x00",
		"shared prefix, longer than a radix key: b"}
	var rows []types.Row
	for range 20000 {
		rows = append(rows, types.Row{
			types.NewInt(rng.Int63n(2001) - 1000),
			types.NewString(strs[rng.Intn(len(strs))]),
			types.NewInt(rng.Int63() - math.MaxInt64/2),
			types.NewInt(-42),
			types.NewInt(extremes[rng.Intn(len(extremes))]),
		})
	}
	for _, buckets := range []int{1, 7, DefaultBuckets} {
		ts, err := Build("t", schema, buildHeap(t, rows), buckets)
		if err != nil {
			t.Fatal(err)
		}
		ref := &TableStats{Table: "t", Rows: ts.Rows, RowBytes: ts.RowBytes, Columns: map[string]*ColumnStats{}}
		for i, c := range schema.Columns {
			vals := make([]types.Value, len(rows))
			for j, r := range rows {
				vals[j] = r[i]
			}
			ref.Columns[c.Name] = referenceColumn(c.Name, vals, buckets)
			got, want := ts.Column(c.Name), ref.Columns[c.Name]
			if got.NDV != want.NDV || got.Rows != want.Rows || len(got.Hist.Buckets) != len(want.Hist.Buckets) ||
				!got.Hist.Min.Equal(want.Hist.Min) || !got.Hist.Max.Equal(want.Hist.Max) {
				t.Fatalf("%d buckets, column %s: NDV %d, %d buckets; reference %d, %d", buckets, c.Name,
					got.NDV, len(got.Hist.Buckets), want.NDV, len(want.Hist.Buckets))
			}
			for j, b := range got.Hist.Buckets {
				if w := want.Hist.Buckets[j]; !b.Upper.Equal(w.Upper) || b.Count != w.Count || b.Distinct != w.Distinct {
					t.Fatalf("%d buckets, column %s: bucket %d is %+v, reference %+v", buckets, c.Name, j, b, w)
				}
			}
		}
		if got, want := ts.Fingerprint(), ref.Fingerprint(); got != want {
			t.Fatalf("%d buckets: fingerprint %x, reference %x", buckets, got, want)
		}
	}
}

// TestBuildRefusesStringInIntColumn: a STRING value in a column the
// schema declares INT fails the build with the row and the column.
func TestBuildRefusesStringInIntColumn(t *testing.T) {
	heap := buildHeap(t, []types.Row{
		{types.NewInt(1), types.NewInt(2)},
		{types.NewInt(3), types.NewString("x")},
	})
	schema := types.MustSchema(types.Column{Name: "a", Kind: types.KindInt}, types.Column{Name: "b", Kind: types.KindInt})
	if _, err := Build("t", schema, heap, 4); err == nil || !strings.Contains(err.Error(), "column b: STRING value in an INT column") {
		t.Fatalf("error %v", err)
	}
}

// genericBucket is bucketFor's search through Value.Compare alone: the
// reference of the INT search.
func genericBucket(h *Histogram, v types.Value) *Bucket {
	i := sort.Search(len(h.Buckets), func(i int) bool { return h.Buckets[i].Upper.Compare(v) >= 0 })
	if i == len(h.Buckets) {
		return nil
	}
	return &h.Buckets[i]
}

// TestIntBucketSearchMatchesCompare checks bucketFor's INT search
// against the generic search over histograms of uniform, skewed,
// negative and extreme values: at every bucket bound, one on either side
// of it, the column's minimum and maximum and values beyond them,
// bucketFor finds the bucket Value.Compare finds.
func TestIntBucketSearchMatchesCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	gens := map[string]func(i int) int64{
		"uniform":  func(int) int64 { return rng.Int63n(5000) },
		"skewed":   func(i int) int64 { return int64(i % 7 * i % 13) },
		"negative": func(int) int64 { return rng.Int63n(2000) - 1000 },
		"extreme": func(i int) int64 {
			switch i % 3 {
			case 0:
				return math.MinInt64 + int64(i)
			case 1:
				return math.MaxInt64 - int64(i)
			}
			return int64(i)
		},
	}
	for name, gen := range gens {
		for _, buckets := range []int{1, 2, 7, 100} {
			var rows []types.Row
			for i := 0; i < 3000; i++ {
				rows = append(rows, types.Row{types.NewInt(gen(i)), types.NewString("x")})
			}
			ts, err := Build("t", twoColSchema(), buildHeap(t, rows), buckets)
			if err != nil {
				t.Fatal(err)
			}
			h := ts.Column("a").Hist
			probes := []int64{h.Min.Int, h.Max.Int, math.MinInt64, math.MaxInt64}
			for _, b := range h.Buckets {
				probes = append(probes, b.Upper.Int-1, b.Upper.Int, b.Upper.Int+1)
			}
			probes = append(probes, h.Min.Int-1, h.Max.Int+1)
			for _, p := range probes {
				v := types.NewInt(p)
				if got, want := h.bucketFor(v), genericBucket(h, v); got != want {
					t.Fatalf("%s/%d: value %d: bucketFor finds %p, the generic search %p", name, buckets, p, got, want)
				}
			}
		}
	}
}
