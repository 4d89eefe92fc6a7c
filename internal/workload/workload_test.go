package workload

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"dyndesign/internal/sql"
)

func TestNewStatementParses(t *testing.T) {
	s, err := NewStatement("SELECT a FROM t WHERE a = 1")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Stmt.(*sql.Select); !ok {
		t.Errorf("Stmt = %T", s.Stmt)
	}
	if _, err := NewStatement("not sql"); err == nil {
		t.Error("garbage accepted")
	}
}

func TestMustStatementPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustStatement did not panic")
		}
	}()
	MustStatement("nope")
}

func TestMixValidate(t *testing.T) {
	good := Mix{Name: "m", Table: "t", Domain: 100, Weights: []ColumnWeight{
		{Column: "a", Weight: 0.5}, {Column: "b", Weight: 0.5},
	}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid mix rejected: %v", err)
	}
	bad := []Mix{
		{Name: "empty", Table: "t", Domain: 100},
		{Name: "domain", Table: "t", Domain: 0, Weights: good.Weights},
		{Name: "negative", Table: "t", Domain: 100, Weights: []ColumnWeight{{Column: "a", Weight: -1}, {Column: "b", Weight: 2}}},
		{Name: "sum", Table: "t", Domain: 100, Weights: []ColumnWeight{{Column: "a", Weight: 0.4}}},
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("mix %q accepted", m.Name)
		}
	}
}

func TestMixGenerateDistribution(t *testing.T) {
	m := PaperMixes(100000)["A"]
	rng := rand.New(rand.NewSource(9))
	stmts, err := m.Generate(rng, 20000)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	for _, s := range stmts {
		sel := s.Stmt.(*sql.Select)
		if len(sel.Where.Conjuncts) != 1 || sel.Where.Conjuncts[0].Op != sql.OpEq {
			t.Fatalf("unexpected statement %q", s.SQL)
		}
		col := sel.Where.Conjuncts[0].Column
		if sel.Columns[0] != col {
			t.Fatalf("projection and predicate column differ in %q", s.SQL)
		}
		counts[col]++
		v := sel.Where.Conjuncts[0].Value.Int
		if v < 0 || v >= m.Domain {
			t.Fatalf("value %d outside domain", v)
		}
	}
	// Mix A: 55/25/10/10.
	want := map[string]float64{"a": 0.55, "b": 0.25, "c": 0.10, "d": 0.10}
	for col, frac := range want {
		got := float64(counts[col]) / 20000
		if math.Abs(got-frac) > 0.02 {
			t.Errorf("column %s frequency %.3f, want %.2f", col, got, frac)
		}
	}
}

func TestMixGenerateDeterministic(t *testing.T) {
	m := PaperMixes(1000)["B"]
	a, _ := m.Generate(rand.New(rand.NewSource(4)), 50)
	b, _ := m.Generate(rand.New(rand.NewSource(4)), 50)
	for i := range a {
		if a[i].SQL != b[i].SQL {
			t.Fatal("same seed produced different workloads")
		}
	}
}

func TestDomainForRows(t *testing.T) {
	if DomainForRows(2500000) != 500000 {
		t.Errorf("paper domain = %d", DomainForRows(2500000))
	}
	if DomainForRows(3) != 1 {
		t.Errorf("tiny domain = %d", DomainForRows(3))
	}
}

func TestPaperWorkloadStructure(t *testing.T) {
	for _, name := range []string{"W1", "W2", "W3"} {
		w, err := PaperWorkload(name, 10000, 10, 5)
		if err != nil {
			t.Fatal(err)
		}
		if w.Len() != 300 {
			t.Errorf("%s has %d statements", name, w.Len())
		}
		if len(w.Labels) != 300 {
			t.Errorf("%s has %d labels", name, len(w.Labels))
		}
	}
	// The three workloads' block patterns match Table 2.
	w1, _ := PaperWorkload("W1", 10000, 10, 5)
	w2, _ := PaperWorkload("W2", 10000, 10, 5)
	w3, _ := PaperWorkload("W3", 10000, 10, 5)
	if w1.Labels[0] != "A" || w1.Labels[20] != "B" || w1.Labels[100] != "C" || w1.Labels[120] != "D" {
		t.Errorf("W1 pattern wrong")
	}
	if w2.Labels[0] != "A" || w2.Labels[10] != "B" {
		t.Errorf("W2 pattern wrong")
	}
	if w3.Labels[0] != "B" || w3.Labels[20] != "A" {
		t.Errorf("W3 pattern wrong")
	}
	if _, err := PaperWorkload("W9", 10000, 10, 5); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestBlockLabelsRuns(t *testing.T) {
	w := &Workload{}
	w.Append("A", MustStatement("SELECT a FROM t"), MustStatement("SELECT a FROM t"))
	w.Append("B", MustStatement("SELECT b FROM t"))
	w.Append("A", MustStatement("SELECT a FROM t"))
	blocks := w.BlockLabels()
	if len(blocks) != 3 {
		t.Fatalf("blocks = %+v", blocks)
	}
	if blocks[0].Label != "A" || blocks[0].Count != 2 || blocks[0].Start != 0 {
		t.Errorf("block 0 = %+v", blocks[0])
	}
	if blocks[1].Label != "B" || blocks[1].Start != 2 {
		t.Errorf("block 1 = %+v", blocks[1])
	}
}

func TestSlice(t *testing.T) {
	w, _ := PaperWorkload("W1", 1000, 5, 1)
	sub := w.Slice(10, 20)
	if sub.Len() != 10 || len(sub.Labels) != 10 {
		t.Errorf("slice len = %d/%d", sub.Len(), len(sub.Labels))
	}
	if sub.Statements[0].SQL != w.Statements[10].SQL {
		t.Error("slice misaligned")
	}
}

func TestGeneratePhased(t *testing.T) {
	mixes := PaperMixes(1000)
	w, err := GeneratePhased("test", mixes, []PhaseSpec{
		{Mix: "A", Count: 10}, {Mix: "C", Count: 5},
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != 15 {
		t.Errorf("len = %d", w.Len())
	}
	if w.Labels[0] != "A" || w.Labels[12] != "C" {
		t.Errorf("labels = %v", w.Labels)
	}
	if _, err := GeneratePhased("bad", mixes, []PhaseSpec{{Mix: "Z", Count: 1}}, 3); err == nil {
		t.Error("unknown mix accepted")
	}
}

func TestSegmentsRespectLabels(t *testing.T) {
	w := &Workload{}
	for i := 0; i < 7; i++ {
		w.Append("A", MustStatement("SELECT a FROM t"))
	}
	for i := 0; i < 5; i++ {
		w.Append("B", MustStatement("SELECT b FROM t"))
	}
	segs := w.Segments(4)
	// Expect [0,4) A, [4,7) A (snapped), [7,11) B, [11,12) B.
	if len(segs) != 4 {
		t.Fatalf("segments = %d", len(segs))
	}
	for _, s := range segs {
		label := w.Labels[s.Start]
		for i := range s.Statements {
			if w.Labels[s.Start+i] != label {
				t.Fatal("segment mixes labels")
			}
		}
	}
	if segs[1].Start != 4 || len(segs[1].Statements) != 3 {
		t.Errorf("segment 1 = %+v", segs[1])
	}
	// Zero size defaults to 1.
	if got := len(w.Segments(0)); got != 12 {
		t.Errorf("size-0 segments = %d", got)
	}
	// Segments cover every statement exactly once.
	total := 0
	for _, s := range w.Segments(5) {
		total += len(s.Statements)
	}
	if total != w.Len() {
		t.Errorf("segments cover %d of %d", total, w.Len())
	}
}

func TestMixHistogram(t *testing.T) {
	w, _ := PaperWorkload("W1", 1000, 10, 1)
	hist := w.MixHistogram()
	total := 0
	for _, b := range hist {
		total += b.Count
	}
	if total != w.Len() {
		t.Errorf("histogram counts %d of %d", total, w.Len())
	}
	if len(hist) != 4 {
		t.Errorf("histogram = %+v", hist)
	}
	// W1 per phase: A A B B A A B B A A — so A appears in 12 of 30
	// blocks (two A-phases), B in 8, C in 6, D in 4.
	if hist[0].Label != "A" || hist[0].Count != 120 {
		t.Errorf("A count = %+v", hist[0])
	}
	if hist[1].Label != "B" || hist[1].Count != 80 {
		t.Errorf("B count = %+v", hist[1])
	}
	if hist[2].Label != "C" || hist[2].Count != 60 {
		t.Errorf("C count = %+v", hist[2])
	}
	if hist[3].Label != "D" || hist[3].Count != 40 {
		t.Errorf("D count = %+v", hist[3])
	}
}

func TestTraceJSONRoundTrip(t *testing.T) {
	w, _ := PaperWorkload("W2", 1000, 5, 2)
	var buf bytes.Buffer
	if err := w.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != w.Name || got.Len() != w.Len() {
		t.Fatalf("round trip: %s/%d vs %s/%d", got.Name, got.Len(), w.Name, w.Len())
	}
	for i := range w.Statements {
		if got.Statements[i].SQL != w.Statements[i].SQL {
			t.Fatalf("statement %d differs", i)
		}
		if got.Labels[i] != w.Labels[i] {
			t.Fatalf("label %d differs", i)
		}
	}
}

func TestTraceJSONErrors(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{")); err == nil {
		t.Error("truncated JSON accepted")
	}
	if _, err := ReadJSON(strings.NewReader(`{"statements": ["garbage here"]}`)); err == nil {
		t.Error("unparsable statement accepted")
	}
	if _, err := ReadJSON(strings.NewReader(`{"statements": ["SELECT a FROM t"], "labels": ["A","B"]}`)); err == nil {
		t.Error("label arity mismatch accepted")
	}
}

func TestGenerateInserts(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	stmts, err := GenerateInserts("t", 4, 100, rng, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 50 {
		t.Fatalf("generated %d", len(stmts))
	}
	for _, s := range stmts {
		ins, ok := s.Stmt.(*sql.Insert)
		if !ok || len(ins.Rows) != 1 || len(ins.Rows[0]) != 4 {
			t.Fatalf("bad insert %q", s.SQL)
		}
		for _, v := range ins.Rows[0] {
			if v.Int < 0 || v.Int >= 100 {
				t.Fatalf("value %d outside domain", v.Int)
			}
		}
	}
	if _, err := GenerateInserts("t", 0, 100, rng, 1); err == nil {
		t.Error("zero columns accepted")
	}
	if _, err := GenerateInserts("t", 4, 0, rng, 1); err == nil {
		t.Error("zero domain accepted")
	}
}

func TestGenerateUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	stmts, err := GenerateUpdates("t", "b", "a", 100, rng, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stmts {
		upd, ok := s.Stmt.(*sql.Update)
		if !ok || len(upd.Set) != 1 || upd.Set[0].Column != "b" {
			t.Fatalf("bad update %q", s.SQL)
		}
		if upd.Where == nil || upd.Where.Conjuncts[0].Column != "a" {
			t.Fatalf("bad update predicate %q", s.SQL)
		}
	}
	if _, err := GenerateUpdates("t", "b", "a", 0, rng, 1); err == nil {
		t.Error("zero domain accepted")
	}
}

// TestTextHashSurvivesCopies pins that the text hash NewStatement
// computes travels with the statement through every path that copies
// statements (Slice, Resample, Window.Snapshot), is computed again by
// the one that re-parses (RestoreState), and equals the hash of a
// literal with the same text.
func TestTextHashSurvivesCopies(t *testing.T) {
	w := labeledFixture(t)
	check := func(how string, got *Workload) {
		t.Helper()
		for i, s := range got.Statements {
			if want := (Statement{SQL: s.SQL}).TextHash(); s.hash == 0 || s.TextHash() != want {
				t.Fatalf("%s: statement %d (%q) carries hash %x, its text hashes to %x", how, i, s.SQL, s.hash, want)
			}
		}
	}
	check("parsed", w)
	seen := map[uint64]bool{}
	for _, s := range w.Statements {
		seen[s.TextHash()] = true
	}
	if len(seen) != w.Len() {
		t.Fatalf("%d distinct texts took %d distinct hashes", w.Len(), len(seen))
	}
	check("Slice", w.Slice(1, 5))
	check("Resample", w.Resample(7))
	win, err := NewWindow("live", 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range w.Statements {
		win.Append(w.Labels[i], s)
	}
	check("Snapshot", win.Snapshot())
	restored, err := NewWindow("live", 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreState(win.State()); err != nil {
		t.Fatal(err)
	}
	check("RestoreState", restored.Snapshot())
}
