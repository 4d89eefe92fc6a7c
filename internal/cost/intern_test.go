package cost

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"dyndesign/internal/sql"
	"dyndesign/internal/types"
)

// synthKeyStatement emits one random statement built to collide compile
// keys: point, IN and one-bound range predicates whose literals often
// share a histogram bucket or fall outside the column's range, two-bound
// ranges on one column (which must stay keyless), mixed-case column
// spellings, and now and then a literal of the wrong kind (a statement
// CompilePlan rejects).
func synthKeyStatement(rng *rand.Rand) string {
	cols := []string{"a", "b", "c", "d", "A", "B", "c", "D"}
	col := func() string { return cols[rng.Intn(len(cols))] }
	lit := func() string {
		if rng.Intn(40) == 0 {
			return "'x'"
		}
		return fmt.Sprint(rng.Intn(9000))
	}
	conjunct := func() string {
		switch rng.Intn(6) {
		case 0:
			in := make([]string, 1+rng.Intn(3))
			for i := range in {
				in[i] = fmt.Sprint(rng.Intn(9000))
			}
			return fmt.Sprintf("%s IN (%s)", col(), strings.Join(in, ", "))
		case 1:
			c := col()
			return fmt.Sprintf("%s >= %s AND %s < %s", c, lit(), strings.ToUpper(c), lit())
		case 2:
			return fmt.Sprintf("%s %s %s", col(), []string{"<", "<=", ">", ">="}[rng.Intn(4)], lit())
		default:
			return fmt.Sprintf("%s = %s", col(), lit())
		}
	}
	where := ""
	if n := rng.Intn(3); n > 0 {
		parts := make([]string, n)
		for i := range parts {
			parts[i] = conjunct()
		}
		where = " WHERE " + strings.Join(parts, " AND ")
	}
	switch rng.Intn(8) {
	case 0:
		return fmt.Sprintf("UPDATE t SET %s = %d", col(), rng.Intn(9000)) + where
	case 1:
		return "DELETE FROM t" + where
	case 2:
		rows := make([]string, 1+rng.Intn(2))
		for i := range rows {
			rows[i] = fmt.Sprintf("(%d, %d, %d, %d)", rng.Intn(9000), rng.Intn(9000), rng.Intn(9000), rng.Intn(9000))
		}
		return "INSERT INTO t VALUES " + strings.Join(rows, ", ")
	case 3:
		return "SELECT COUNT(*) FROM t" + where
	case 4:
		return "SELECT * FROM t" + where
	default:
		return fmt.Sprintf("SELECT %s FROM t", col()) + where
	}
}

// combinedRange reports whether some column carries two range bounds.
func combinedRange(stmt sql.Statement) bool {
	var w *sql.Where
	switch s := stmt.(type) {
	case *sql.Select:
		w = s.Where
	case *sql.Update:
		w = s.Where
	case *sql.Delete:
		w = s.Where
	}
	if w == nil {
		return false
	}
	bounds := map[string]int{}
	for _, c := range w.Conjuncts {
		if isRangeOp(c.Op) {
			if bounds[strings.ToLower(c.Column)]++; bounds[strings.ToLower(c.Column)] == 2 {
				return true
			}
		}
	}
	return false
}

// invalidTwins returns writes the engine refuses that are stmt but for
// what its literals' values leave out: for an INSERT, rows as many as its
// own of the wrong arity and of the wrong kinds; for an UPDATE, the same
// WHERE setting an unknown column or a column to a value of the wrong
// kind. Neither an INSERT's values nor an UPDATE's SET values are priced,
// so only the template tells such a twin from a valid statement.
func invalidTwins(stmt sql.Statement) []sql.Statement {
	switch s := stmt.(type) {
	case *sql.Insert:
		short := &sql.Insert{Table: s.Table, Rows: make([]types.Row, len(s.Rows))}
		kinds := &sql.Insert{Table: s.Table, Rows: make([]types.Row, len(s.Rows))}
		for i, row := range s.Rows {
			short.Rows[i] = row[:1]
			kinds.Rows[i] = make(types.Row, len(row))
			for j := range row {
				kinds.Rows[i][j] = types.NewString("x")
			}
		}
		return []sql.Statement{short, kinds}
	case *sql.Update:
		return []sql.Statement{
			&sql.Update{Table: s.Table, Set: []sql.Assignment{{Column: "zz", Value: types.NewInt(1)}}, Where: s.Where},
			&sql.Update{Table: s.Table, Set: []sql.Assignment{{Column: s.Set[0].Column, Value: types.NewString("x")}}, Where: s.Where},
		}
	}
	return nil
}

// checkPlanKeySeed is the body of FuzzPlanKey: over one random world and
// a random configuration list it compiles random statements through a
// PlanSet — by its own Compile and by two fronts, in random turns — and
// asserts the template layer's contract: every table costs what a fresh
// CompilePlan's does, bit for bit, at every configuration, and a
// statement CompilePlan rejects is rejected with its error; equal
// templates hash equal; a combined range is flagged as one, and compiles
// to its own literals; statements of one template and equal numbers get
// one table, whichever path resolved them; and a write the engine refuses
// that is a held template's statement but for what its literals leave out
// is refused on every path. It returns how many statements met an earlier
// statement's template and numbers, and how many combined ranges it saw.
func checkPlanKeySeed(t *testing.T, seed uint64) (shared, combined int) {
	rng := rand.New(rand.NewSource(int64(seed)))
	tp := synthTable(t, rng)
	idx := synthIndexes(t, rng, tp, 1+rng.Intn(6))
	all := uint64(1)<<uint(len(idx)) - 1
	configs := []uint64{0, all}
	for n := rng.Intn(30); n > 0; n-- {
		configs = append(configs, rng.Uint64()&all)
	}
	set := NewPlanSet(tp, idx)
	paths := []func(sql.Statement) (*PlanTable, error){set.Compile, set.Front().Compile, set.Front().Compile}
	type first struct {
		stmt sql.Statement
		text string
		nums []float64
		pt   *PlanTable
	}
	var firsts []first
	for i := 0; i < 80; i++ {
		text := synthKeyStatement(rng)
		stmt, err := sql.Parse(text)
		if err != nil {
			t.Fatalf("seed %d: generated unparseable SQL %q: %v", seed, text, err)
		}
		pt, cerr := CompilePlan(stmt, tp, idx)
		interned, serr := paths[rng.Intn(len(paths))](stmt)
		if cerr != nil {
			if serr == nil || serr.Error() != cerr.Error() {
				t.Fatalf("seed %d: %q is rejected by CompilePlan (%v) but the PlanSet says %v", seed, text, cerr, serr)
			}
			continue
		}
		if serr != nil {
			t.Fatalf("seed %d: PlanSet rejected %q: %v", seed, text, serr)
		}
		for _, c := range configs {
			if got, want := interned.Cost(c), pt.Cost(c); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d: %q config %b: PlanSet table %v != fresh compile %v", seed, text, c, got, want)
			}
		}
		tmpl, err := newTemplate(stmt, tp, idx)
		if err != nil {
			t.Fatalf("seed %d: %q compiles but its template fails: %v", seed, text, err)
		}
		if got := tmpl.search != nil && tmpl.search.combined; got != combinedRange(stmt) {
			t.Fatalf("seed %d: %q: template flags a combined range %v, the statement has one %v", seed, text, got, !got)
		}
		for _, twin := range invalidTwins(stmt) {
			_, cerr := CompilePlan(twin, tp, idx)
			for p, compile := range paths {
				if _, serr := compile(twin); cerr == nil || serr == nil {
					t.Fatalf("seed %d: %q's invalid twin %q: CompilePlan error %v, path %d error %v", seed, text, twin, cerr, p, serr)
				}
			}
		}
		if combinedRange(stmt) {
			combined++
			continue
		}
		nums := tmpl.numbers(conjunctsOf(stmt), nil)
		j := slices.IndexFunc(firsts, func(f first) bool { return sameTemplate(stmt, f.stmt) && sameBits(nums, f.nums) })
		for _, f := range firsts {
			if sameTemplate(stmt, f.stmt) != sameTemplate(f.stmt, stmt) {
				t.Fatalf("seed %d: sameTemplate(%q, %q) is not symmetric", seed, text, f.text)
			}
			if h1, _ := templateHash(stmt); sameTemplate(stmt, f.stmt) {
				if h2, _ := templateHash(f.stmt); h1 != h2 {
					t.Fatalf("seed %d: %q and %q have equal templates but hash %x and %x", seed, text, f.text, h1, h2)
				}
			}
		}
		if j < 0 {
			firsts = append(firsts, first{stmt, text, nums, interned})
			continue
		}
		shared++
		f := firsts[j]
		for p, compile := range paths {
			if again, err := compile(stmt); err != nil || again != f.pt {
				t.Fatalf("seed %d: %q and %q share a template and numbers but path %d gave another table (%v)", seed, f.text, text, p, err)
			}
		}
		for _, c := range configs {
			if got, want := pt.Cost(c), f.pt.Cost(c); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d: %q and %q share a template and numbers, config %b costs %v (bits %x) and %v (bits %x)",
					seed, f.text, text, c, want, math.Float64bits(want), got, math.Float64bits(got))
			}
		}
	}
	return shared, combined
}

// FuzzPlanKey pins the template layer's contract: a PlanSet's table,
// through its own Compile or a front, is CompilePlan's at every
// configuration; statements of one template and equal numbers share one
// table; and a statement whose table depends on its literals (a combined
// range) compiles to its own, while one CompilePlan rejects is rejected.
func FuzzPlanKey(f *testing.F) {
	for s := uint64(0); s < 8; s++ {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		checkPlanKeySeed(t, seed)
	})
}

// TestPlanKeySeeds runs the PlanKey fuzz body over a fixed seed sweep,
// and checks that the sweep exercises both halves of the contract.
func TestPlanKeySeeds(t *testing.T) {
	shared, combined := 0, 0
	for s := uint64(0); s < 40; s++ {
		sh, co := checkPlanKeySeed(t, s)
		shared += sh
		combined += co
	}
	if shared < 100 || combined < 50 {
		t.Fatalf("the sweep met %d shared tables and %d combined ranges; it needs both to mean anything", shared, combined)
	}
}

// classPaths counts the ways fillClasses answered.
type classPaths struct{ classed, declined, noRepeats int }

// checkClassFill extends the row-kernel checks to segments that repeat
// table pointers, as a PlanSet hands them out: one drawn with repeats
// from a few of tables, over configs and over a projection of configs
// onto a random subset of the indexes (a list that is not the layout's,
// as a partitioned component asks for), and tables itself, which repeats
// none. Each fill — fillClasses when it answers, Fill serially, and Fill
// of every suffix by four goroutines sharing a fresh kernel — must be
// bitwise the per-cell sum of PlanTable.Cost in statement order.
func checkClassFill(t *testing.T, seed uint64, rng *rand.Rand, tables []*PlanTable, configs []uint64) classPaths {
	var paths classPaths
	if len(tables) == 0 {
		return paths
	}
	pool := tables[:1+rng.Intn(min(4, len(tables)))]
	seg := make([]*PlanTable, 2*len(pool)+rng.Intn(30))
	for i := range seg {
		seg[i] = pool[rng.Intn(len(pool))]
	}
	mask := rng.Uint64()
	projected := make([]uint64, len(configs))
	for j, c := range configs {
		projected[j] = c & mask
	}
	for _, tc := range []struct {
		name    string
		seg     []*PlanTable
		configs []uint64
	}{
		{"repeats", seg, configs},
		{"repeats, projected list", seg, projected},
		{"no repeats", tables, configs},
	} {
		oracle := func(from int) []float64 {
			row := make([]float64, len(tc.configs))
			for j, c := range tc.configs {
				for _, pt := range tc.seg[from:] {
					row[j] += pt.Cost(c)
				}
			}
			return row
		}
		compare := func(how string, from int, got []float64) {
			t.Helper()
			want := oracle(from)
			for j, c := range tc.configs {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("seed %d %s, %s, tables[%d:] config %b: %v (bits %x) != per-cell %v (bits %x)",
						seed, tc.name, how, from, c, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
				}
			}
		}
		out := make([]float64, len(tc.configs))
		switch classed := NewRowKernel(tc.configs).fillClasses(tc.seg, out); {
		case tc.name == "no repeats":
			if classed && len(tc.seg) > 1 {
				t.Fatalf("seed %d: a segment of %d distinct tables was filled by classes", seed, len(tc.seg))
			}
			paths.noRepeats++
		case classed:
			compare("fillClasses", 0, out)
			paths.classed++
		default:
			paths.declined++
		}
		serial := NewRowKernel(tc.configs)
		serial.Fill(tc.seg, out)
		compare("serial Fill", 0, out)
		shared := NewRowKernel(tc.configs)
		rows := make([][]float64, 4)
		var wg sync.WaitGroup
		for g := range rows {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rows[g] = make([]float64, len(tc.configs))
				shared.Fill(tc.seg[min(g, len(tc.seg)):], rows[g])
			}(g)
		}
		wg.Wait()
		for g, row := range rows {
			compare("concurrent Fill", min(g, len(tc.seg)), row)
		}
	}
	return paths
}

// TestClassFillSeeds runs the class-fill checks over plan tables a
// PlanSet compiled — so the repeats are the ones a problem's segments
// carry — on the full lattice of the world's indexes and on a short
// random list, and requires every path to be taken: classes, a fallback
// because the classes pass half the list, and a segment without repeats.
func TestClassFillSeeds(t *testing.T) {
	var paths classPaths
	for s := uint64(0); s < 60; s++ {
		rng := rand.New(rand.NewSource(int64(s)))
		tp := synthTable(t, rng)
		idx := synthIndexes(t, rng, tp, 1+rng.Intn(6))
		set := NewPlanSet(tp, idx)
		var tables []*PlanTable
		for len(tables) < 6 {
			pt, err := set.Compile(sql.MustParse(synthStatement(rng)))
			if err == nil && !slices.Contains(tables, pt) {
				tables = append(tables, pt)
			}
		}
		all := uint64(1)<<uint(len(idx)) - 1
		lattice := make([]uint64, all+1)
		for c := range lattice {
			lattice[c] = uint64(c)
		}
		short := []uint64{rng.Uint64() & all, rng.Uint64() & all, rng.Uint64() & all}
		for _, configs := range [][]uint64{lattice, short} {
			p := checkClassFill(t, s, rng, tables, configs)
			paths.classed += p.classed
			paths.declined += p.declined
			paths.noRepeats += p.noRepeats
		}
	}
	if paths.classed == 0 || paths.declined == 0 || paths.noRepeats == 0 {
		t.Fatalf("paths taken %+v: the sweep must fill by classes, decline, and meet segments without repeats", paths)
	}
}
