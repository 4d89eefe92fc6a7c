package cost

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"dyndesign/internal/catalog"
	"dyndesign/internal/sql"
	"dyndesign/internal/stats"
	"dyndesign/internal/types"
)

// synthColumn fabricates a structurally valid equi-depth histogram for
// one integer column: ascending distinct values grouped into buckets,
// random per-value counts. The absolute selectivities do not matter for
// the equivalence tests — only that plan tables and the planner read the
// same statistics.
func synthColumn(rng *rand.Rand, name string) *stats.ColumnStats {
	ndv := 3 + rng.Intn(40)
	vals := make([]int64, 0, ndv)
	v := int64(rng.Intn(50))
	for i := 0; i < ndv; i++ {
		v += 1 + int64(rng.Intn(200))
		vals = append(vals, v)
	}
	counts := make([]int64, ndv)
	var rows int64
	for i := range counts {
		counts[i] = 1 + int64(rng.Intn(100))
		rows += counts[i]
	}
	h := &stats.Histogram{
		Min:  types.NewInt(vals[0]),
		Max:  types.NewInt(vals[ndv-1]),
		Rows: rows,
	}
	for i := 0; i < ndv; {
		span := 1 + rng.Intn(4)
		if i+span > ndv {
			span = ndv - i
		}
		var cnt int64
		for j := i; j < i+span; j++ {
			cnt += counts[j]
		}
		h.Buckets = append(h.Buckets, stats.Bucket{
			Upper:    types.NewInt(vals[i+span-1]),
			Count:    cnt,
			Distinct: int64(span),
		})
		i += span
	}
	return &stats.ColumnStats{Column: name, Rows: rows, NDV: int64(ndv), Hist: h}
}

func synthTable(t testing.TB, rng *rand.Rand) TablePhys {
	schema, err := types.NewSchema(
		types.Column{Name: "a", Kind: types.KindInt},
		types.Column{Name: "b", Kind: types.KindInt},
		types.Column{Name: "c", Kind: types.KindInt},
		types.Column{Name: "d", Kind: types.KindInt},
	)
	if err != nil {
		t.Fatalf("schema: %v", err)
	}
	rows := int64(500 + rng.Intn(200000))
	ts := &stats.TableStats{
		Table:    "t",
		Rows:     rows,
		RowBytes: 36,
		Columns:  map[string]*stats.ColumnStats{},
	}
	for _, c := range []string{"a", "b", "c", "d"} {
		ts.Columns[c] = synthColumn(rng, c)
	}
	return TablePhys{
		Name:      "t",
		Schema:    schema,
		Rows:      float64(rows),
		HeapPages: HeapPagesForRows(rows, 36),
		Stats:     ts,
	}
}

var synthCombos = [][]string{
	{"a"}, {"b"}, {"c"}, {"d"},
	{"a", "b"}, {"b", "a"}, {"c", "d"}, {"a", "c"}, {"d", "b"}, {"b", "c", "d"},
}

func synthIndexes(t testing.TB, rng *rand.Rand, tp TablePhys, n int) []IndexPhys {
	perm := rng.Perm(len(synthCombos))
	out := make([]IndexPhys, 0, n)
	for _, pi := range perm[:n] {
		ip, err := HypotheticalIndex(catalog.IndexDef{Table: "t", Columns: synthCombos[pi]}, tp)
		if err != nil {
			t.Fatalf("hypothetical index: %v", err)
		}
		out = append(out, ip)
	}
	return out
}

// synthStatement emits one random statement in the dialect the workload
// generator uses, exercising point and range predicates, IN lists,
// projections, star selects, and all three DML forms.
func synthStatement(rng *rand.Rand) string {
	cols := []string{"a", "b", "c", "d"}
	where := func(maxConj int) string {
		n := rng.Intn(maxConj + 1)
		if n == 0 {
			return ""
		}
		parts := make([]string, 0, n)
		ops := []string{"=", "<", ">", "<=", ">="}
		for i := 0; i < n; i++ {
			col := cols[rng.Intn(len(cols))]
			if rng.Intn(6) == 0 {
				k := 1 + rng.Intn(3)
				in := make([]string, k)
				for j := range in {
					in[j] = fmt.Sprint(rng.Intn(12000))
				}
				parts = append(parts, fmt.Sprintf("%s IN (%s)", col, strings.Join(in, ", ")))
				continue
			}
			parts = append(parts, fmt.Sprintf("%s %s %d", col, ops[rng.Intn(len(ops))], rng.Intn(12000)))
		}
		return " WHERE " + strings.Join(parts, " AND ")
	}
	switch rng.Intn(10) {
	case 0, 1, 2, 3:
		proj := "*"
		if rng.Intn(2) == 0 {
			k := 1 + rng.Intn(3)
			perm := rng.Perm(len(cols))
			sel := make([]string, k)
			for i := 0; i < k; i++ {
				sel[i] = cols[perm[i]]
			}
			proj = strings.Join(sel, ", ")
		}
		return "SELECT " + proj + " FROM t" + where(3)
	case 4, 5:
		return fmt.Sprintf("UPDATE t SET %s = %d", cols[rng.Intn(len(cols))], rng.Intn(12000)) + where(2)
	case 6, 7:
		return "DELETE FROM t" + where(2)
	default:
		return fmt.Sprintf("INSERT INTO t VALUES (%d, %d, %d, %d)",
			rng.Intn(12000), rng.Intn(12000), rng.Intn(12000), rng.Intn(12000))
	}
}

// subsetOf returns the indexes configuration c selects, in bit order.
func subsetOf(idx []IndexPhys, c uint64) []IndexPhys {
	var out []IndexPhys
	for i := range idx {
		if c&(1<<uint(i)) != 0 {
			out = append(out, idx[i])
		}
	}
	return out
}

// plannerCost is the reference EXEC(stmt) over the index set idxs, which
// a plan table must reproduce bit for bit: the page cost of the access
// the planner picks for the row search (ChooseAccess), plus, for DML,
// the estimated rows it writes times the pages each written row costs —
// a heap write, and per index a descent and a leaf write, twice for an
// UPDATE's delete and insert of the entry. A statement the engine would
// refuse (the table's catalog check) or the planner rejects is an error.
func plannerCost(stmt sql.Statement, tp TablePhys, idxs []IndexPhys) (float64, error) {
	if err := tp.check(stmt); err != nil {
		return 0, err
	}
	search := rowSearch(stmt)
	writes, rows := 1.0, 0.0
	switch s := stmt.(type) {
	case *sql.Select:
		a, err := ChooseAccess(s, tp, idxs)
		return a.PageCost, err
	case *sql.Insert:
		rows = float64(len(s.Rows))
	case *sql.Update:
		writes = 2
	case *sql.Delete:
	default:
		return 0, fmt.Errorf("not a workload statement: %T", stmt)
	}
	perRow := 1.0
	for _, ip := range idxs {
		perRow += writes * (ip.Height + 1)
	}
	if search == nil {
		return float64(rows * perRow), nil
	}
	a, err := ChooseAccess(search, tp, idxs)
	if err != nil {
		return 0, err
	}
	return a.PageCost + float64(a.EstResultRows*perRow), nil
}

// rowSearch returns stmt's row search: a SELECT itself, an UPDATE's or a
// DELETE's WHERE clause as a SELECT, and nil for anything else.
func rowSearch(stmt sql.Statement) *sql.Select {
	switch s := stmt.(type) {
	case *sql.Select:
		return s
	case *sql.Update:
		return &sql.Select{Table: s.Table, Where: s.Where, Limit: -1}
	case *sql.Delete:
		return &sql.Select{Table: s.Table, Where: s.Where, Limit: -1}
	}
	return nil
}

// checkSeekRows recomputes, from the histograms, the rows a seek the
// planner chose expects to match: the table's rows times the product of
// its consumed conjuncts' selectivities, in consumption order. A seek
// over two bounds on one column prices their combined range and is not
// checked. The planner is the reference of every equivalence here, so
// this is what anchors its seeks to the statistics.
func checkSeekRows(t *testing.T, seed uint64, text string, tp TablePhys, sel *sql.Select, a Access) {
	if a.Kind != IndexSeek {
		return
	}
	f := 1.0
	ranges := 0
	for _, ci := range a.Consumed {
		c := sel.Where.Conjuncts[ci]
		v := conjunctSelectivity(columnStats(tp, c.Column), c)
		if isRangeOp(c.Op) {
			if ranges++; ranges > 1 {
				return
			}
			v = conjunctSelectivity(columnStats(tp, tp.Schema.Columns[tp.Schema.ColumnIndex(c.Column)].Name), c)
		}
		f *= v
	}
	if want := tp.Rows * f; math.Float64bits(a.EstMatchRows) != math.Float64bits(want) {
		t.Fatalf("seed %d: %q: seek on %s expects %v matching rows, its conjuncts' selectivities give %v",
			seed, text, a.Index.Def.Name(), a.EstMatchRows, want)
	}
}

// checkSeed is the shared body of the fuzzer and the deterministic seed
// sweep: for one random world it asserts that PlanTable.Cost is
// bit-for-bit plannerCost on every configuration of the candidate set,
// and that CompilePlan rejects exactly what plannerCost rejects.
func checkSeed(t *testing.T, seed uint64) {
	rng := rand.New(rand.NewSource(int64(seed)))
	tp := synthTable(t, rng)
	idx := synthIndexes(t, rng, tp, 5)
	nstmt := 1 + rng.Intn(6)
	for si := 0; si < nstmt; si++ {
		text := synthStatement(rng)
		stmt, err := sql.Parse(text)
		if err != nil {
			t.Fatalf("seed %d: generated unparseable SQL %q: %v", seed, text, err)
		}
		pt, perr := CompilePlan(stmt, tp, idx)
		if perr != nil {
			if _, serr := plannerCost(stmt, tp, nil); serr == nil {
				t.Fatalf("seed %d: CompilePlan failed (%v) but the planner accepted %q", seed, perr, text)
			}
			continue
		}
		search := rowSearch(stmt)
		for c := uint64(0); c < 1<<len(idx); c++ {
			subset := subsetOf(idx, c)
			want, serr := plannerCost(stmt, tp, subset)
			if serr != nil {
				t.Fatalf("seed %d: plannerCost(%q, %b): %v", seed, text, c, serr)
			}
			got := pt.Cost(c)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d: %q config %05b: plan table %v (bits %x) != planner %v (bits %x)",
					seed, text, c, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			if search != nil {
				a, err := ChooseAccess(search, tp, subset)
				if err != nil {
					t.Fatalf("seed %d: ChooseAccess(%q, %b): %v", seed, text, c, err)
				}
				checkSeekRows(t, seed, text, tp, search, a)
			}
		}
	}
}

// FuzzBatchCostEquivalence pins what-if ≡ planner: plan-table costing is
// bitwise identical, on every configuration, to the access the planner
// picks over that configuration's indexes plus the DML maintenance
// written out in plannerCost, across random schemas, statistics, index
// sets, and statements.
func FuzzBatchCostEquivalence(f *testing.F) {
	for s := uint64(0); s < 8; s++ {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		checkSeed(t, seed)
	})
}

// TestPlanTableMatchesPlannerSeeds runs the fuzz body over a fixed seed
// sweep so plain `go test` exercises the equivalence without the fuzz
// engine.
func TestPlanTableMatchesPlannerSeeds(t *testing.T) {
	for s := uint64(0); s < 50; s++ {
		checkSeed(t, s)
	}
}

// checkRowKernelSeed is the body of the row-kernel fuzzer: for one random
// world, statement list, and candidate list it asserts that a row filled
// by RowKernel is bit-for-bit the per-cell sum of PlanTable.Cost and the
// per-cell sum of plannerCost, both accumulated in statement order from
// 0. The candidate lists are arbitrary — unordered, with
// duplicates, the empty and the full configuration, and bits beyond the
// index list — and every fourth seed uses an index list that gives point
// queries a clique wider than maxProjBits (no projection table). Four
// goroutines sharing one fresh kernel must reproduce the serial rows.
func checkRowKernelSeed(t *testing.T, seed uint64) {
	rng := rand.New(rand.NewSource(int64(seed)))
	tp := synthTable(t, rng)
	var idx []IndexPhys
	if seed%4 == 3 {
		wide, err := HypotheticalIndex(catalog.IndexDef{Table: "t", Columns: []string{"a"}}, tp)
		if err != nil {
			t.Fatalf("hypothetical index: %v", err)
		}
		for i := 0; i < maxProjBits+2; i++ {
			idx = append(idx, wide)
		}
	} else {
		idx = synthIndexes(t, rng, tp, 1+rng.Intn(6))
	}
	all := uint64(1)<<uint(len(idx)) - 1

	// Every statement kind, a search no index can win, and a point query
	// on the wide clique's column, between random statements.
	texts := []string{
		"SELECT * FROM t",
		"SELECT a FROM t WHERE a = 100",
		"INSERT INTO t VALUES (1, 2, 3, 4)",
		"UPDATE t SET b = 7 WHERE a = 100",
		"DELETE FROM t WHERE a < 50",
	}
	for n := rng.Intn(8); n > 0; n-- {
		texts = append(texts, synthStatement(rng))
	}
	rng.Shuffle(len(texts), func(i, j int) { texts[i], texts[j] = texts[j], texts[i] })
	var stmts []sql.Statement
	var tables []*PlanTable
	compiled := texts[:0]
	for _, text := range texts {
		stmt, err := sql.Parse(text)
		if err != nil {
			t.Fatalf("seed %d: generated unparseable SQL %q: %v", seed, text, err)
		}
		pt, perr := CompilePlan(stmt, tp, idx)
		if perr != nil {
			if _, serr := plannerCost(stmt, tp, nil); serr == nil {
				t.Fatalf("seed %d: CompilePlan failed (%v) but the planner accepted %q", seed, perr, text)
			}
			continue
		}
		compiled = append(compiled, text)
		stmts = append(stmts, stmt)
		tables = append(tables, pt)
	}

	configs := []uint64{0, all, all | 1<<40}
	if len(idx) <= 6 && rng.Intn(2) == 0 {
		for c := uint64(0); c <= all; c++ {
			configs = append(configs, c)
		}
	}
	for n := 1 + rng.Intn(40); n > 0; n-- {
		configs = append(configs, rng.Uint64()&all)
	}
	configs = append(configs, configs[rng.Intn(len(configs))])
	rng.Shuffle(len(configs), func(i, j int) { configs[i], configs[j] = configs[j], configs[i] })

	// suffix[g] is the oracle row over tables[g:]: per cell, PlanTable.Cost
	// summed in order — checked against the planner for g == 0.
	const workers = 4
	suffix := make([][]float64, workers)
	for g := range suffix {
		from := min(g, len(tables))
		suffix[g] = make([]float64, len(configs))
		for j, c := range configs {
			subset := subsetOf(idx, c)
			perCell, planner := 0.0, 0.0
			for i := from; i < len(tables); i++ {
				perCell += tables[i].Cost(c)
				v, err := plannerCost(stmts[i], tp, subset)
				if err != nil {
					t.Fatalf("seed %d: plannerCost(%q, %b): %v", seed, compiled[i], c, err)
				}
				planner += v
			}
			if math.Float64bits(perCell) != math.Float64bits(planner) {
				t.Fatalf("seed %d config %b: per-cell plan tables %v != planner %v", seed, c, perCell, planner)
			}
			suffix[g][j] = perCell
		}
	}

	fill := func(k *RowKernel[uint64], g int) []float64 {
		out := make([]float64, len(configs))
		for j := range out {
			out[j] = math.NaN() // Fill must not depend on out's contents
		}
		k.Fill(tables[min(g, len(tables)):], out)
		return out
	}
	compare := func(how string, g int, got []float64) {
		for j, c := range configs {
			if math.Float64bits(got[j]) != math.Float64bits(suffix[g][j]) {
				t.Errorf("seed %d %s tables[%d:] config %b: row kernel %v (bits %x) != per-cell %v (bits %x)",
					seed, how, g, c, got[j], math.Float64bits(got[j]), suffix[g][j], math.Float64bits(suffix[g][j]))
				return
			}
		}
	}
	serial := NewRowKernel(configs)
	for g := 0; g < workers; g++ {
		compare("serial", g, fill(serial, g))
	}
	shared := NewRowKernel(configs)
	rows := make([][]float64, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rows[g] = fill(shared, g)
		}(g)
	}
	wg.Wait()
	for g, row := range rows {
		compare("concurrent", g, row)
	}
	checkClassFill(t, seed, rng, tables, configs)
}

// FuzzRowKernelEquivalence pins the row kernel to the per-cell
// definition it replaces: row kernel ≡ PlanTable.Cost ≡ planner,
// bitwise, over random candidate lists.
func FuzzRowKernelEquivalence(f *testing.F) {
	for s := uint64(0); s < 8; s++ {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		checkRowKernelSeed(t, seed)
	})
}

// TestRowKernelMatchesPerCellSeeds runs the row-kernel fuzz body over a
// fixed seed sweep under plain `go test` (and -race).
func TestRowKernelMatchesPerCellSeeds(t *testing.T) {
	for s := uint64(0); s < 60; s++ {
		checkRowKernelSeed(t, s)
	}
}

// TestRelevantMaskMatchesSoloProbe pins the contract ExecInteractions
// depends on: bit i of RelevantMask is set exactly when a solo what-if
// probe of index i would pick a non-heap access path.
func TestRelevantMaskMatchesSoloProbe(t *testing.T) {
	for s := uint64(100); s < 120; s++ {
		rng := rand.New(rand.NewSource(int64(s)))
		tp := synthTable(t, rng)
		idx := synthIndexes(t, rng, tp, 5)
		for si := 0; si < 4; si++ {
			text := synthStatement(rng)
			stmt, err := sql.Parse(text)
			if err != nil {
				t.Fatalf("seed %d: %q: %v", s, text, err)
			}
			sel, ok := stmt.(*sql.Select)
			if !ok {
				continue
			}
			pt, err := CompilePlan(stmt, tp, idx)
			if err != nil {
				t.Fatalf("seed %d: CompilePlan(%q): %v", s, text, err)
			}
			for i := range idx {
				acc, err := ChooseAccess(sel, tp, idx[i:i+1])
				if err != nil {
					t.Fatalf("seed %d: ChooseAccess(%q): %v", s, text, err)
				}
				wantRelevant := acc.Kind != HeapScan
				gotRelevant := pt.RelevantMask()&(1<<uint(i)) != 0
				if wantRelevant != gotRelevant {
					t.Fatalf("seed %d: %q index %d: solo probe kind %v but relevant bit %v",
						s, text, i, acc.Kind, gotRelevant)
				}
			}
		}
	}
}

// TestPlanTableWideCliqueFallback forces a relevant clique wider than
// maxProjBits so the dense projection array is skipped, and checks the
// bit-scan fallback path still matches the planner.
func TestPlanTableWideCliqueFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tp := synthTable(t, rng)
	def := catalog.IndexDef{Table: "t", Columns: []string{"a"}}
	idx := make([]IndexPhys, 0, maxProjBits+2)
	for i := 0; i < maxProjBits+2; i++ {
		ip, err := HypotheticalIndex(def, tp)
		if err != nil {
			t.Fatalf("hypothetical index: %v", err)
		}
		idx = append(idx, ip)
	}
	stmt := sql.MustParse("SELECT a FROM t WHERE a = 100")
	pt, err := CompilePlan(stmt, tp, idx)
	if err != nil {
		t.Fatalf("CompilePlan: %v", err)
	}
	if w := bits.OnesCount64(pt.RelevantMask()); w <= maxProjBits {
		t.Fatalf("want clique wider than %d, got %d (mask %b)", maxProjBits, w, pt.RelevantMask())
	}
	check := func(c uint64) {
		want, serr := plannerCost(stmt, tp, subsetOf(idx, c))
		if serr != nil {
			t.Fatalf("plannerCost(%b): %v", c, serr)
		}
		got := pt.Cost(c)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("config %b: plan table %v != planner %v", c, got, want)
		}
	}
	all := uint64(1)<<uint(len(idx)) - 1
	check(0)
	check(all)
	for i := 0; i < 300; i++ {
		check(rng.Uint64() & all)
	}
}

// TestCompilePlanRejectsInvalidStatement checks compile-time validation
// fails the statements the planner fails, and the writes and tables the
// engine refuses before it touches a row.
func TestCompilePlanRejectsInvalidStatement(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tp := synthTable(t, rng)
	idx := synthIndexes(t, rng, tp, 3)
	stmt := sql.MustParse("SELECT nope FROM t WHERE a = 1")
	if _, err := CompilePlan(stmt, tp, idx); err == nil {
		t.Fatalf("CompilePlan accepted a statement with an unknown column")
	}
	if _, err := ChooseAccess(stmt.(*sql.Select), tp, idx); err == nil {
		t.Fatalf("the planner accepted a statement with an unknown column")
	}
	for _, text := range []string{
		"INSERT INTO t VALUES (1)",
		"INSERT INTO t VALUES ('x', 'y', 'z', 'w')",
		"INSERT INTO t VALUES (1, 2, 3, 4), (5, 6, 7)",
		"INSERT INTO t (a, zz) VALUES (1, 2)",
		"INSERT INTO t (a, b, c, A) VALUES (1, 2, 3, 4)",
		"UPDATE t SET zz = 1 WHERE a = 1",
		"UPDATE t SET a = 'x' WHERE a = 1",
		"SELECT a FROM nowhere WHERE a = 1",
		"DELETE FROM nowhere WHERE a = 1",
	} {
		stmt := sql.MustParse(text)
		if _, err := CompilePlan(stmt, tp, idx); err == nil {
			t.Errorf("CompilePlan accepted %q", text)
		}
		if _, err := NewPlanSet(tp, idx).Compile(stmt); err == nil {
			t.Errorf("a PlanSet accepted %q", text)
		}
	}
	for _, text := range []string{
		"INSERT INTO T (d, c, b, a) VALUES (1, 2, 3, 4)",
		"UPDATE T SET A = 1 WHERE a = 1",
	} {
		if _, err := CompilePlan(sql.MustParse(text), tp, idx); err != nil {
			t.Errorf("CompilePlan rejected %q: %v", text, err)
		}
	}
}
