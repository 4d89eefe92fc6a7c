package engine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dyndesign/internal/catalog"
	"dyndesign/internal/cost"
	"dyndesign/internal/keyenc"
	"dyndesign/internal/sql"
	"dyndesign/internal/storage"
	"dyndesign/internal/types"
)

// The oracle of the byte-level filters: decode the row (or key), then
// evaluate each conjunct on the decoded values.

// oraclePred is a conjunct with its column resolved to an ordinal.
type oraclePred struct {
	ord  int
	op   sql.CompareOp
	val  types.Value
	vals []types.Value // sorted IN list
}

func oraclePreds(t testing.TB, schema *types.Schema, conjuncts []sql.Comparison) []oraclePred {
	out := make([]oraclePred, len(conjuncts))
	for i, c := range conjuncts {
		ord := schema.ColumnIndex(c.Column)
		if ord < 0 {
			t.Fatalf("unknown column %q", c.Column)
		}
		out[i] = oraclePred{ord: ord, op: c.Op, val: c.Value, vals: c.Values}
	}
	return out
}

func (p oraclePred) evalValue(v types.Value) bool {
	if p.op == sql.OpIn {
		i, found := slices.BinarySearchFunc(p.vals, v, types.Value.Compare)
		return found && p.vals[i].Equal(v)
	}
	c := v.Compare(p.val)
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

func evalAll(preds []oraclePred, row types.Row) bool {
	for _, p := range preds {
		if !p.evalValue(row[p.ord]) {
			return false
		}
	}
	return true
}

// oracleCollectRows is collectRows for the plans the differential test
// forces — a heap scan, or a full scan of an index, covering or fetching
// — with every row and key decoded before its residual is evaluated.
func oracleCollectRows(t testing.TB, td *tableData, plan *Plan, needHeap bool) []matchedRow {
	t.Helper()
	schema := td.meta.Schema
	residual := oraclePreds(t, schema, plan.Residual)
	var out []matchedRow
	if plan.Access.Kind == cost.HeapScan {
		td.heap.Scan(func(rid storage.RID, payload []byte) bool {
			row, err := types.DecodeRow(payload)
			if err != nil {
				t.Fatal(err)
			}
			if evalAll(residual, row) {
				out = append(out, matchedRow{rid: rid, row: row})
			}
			return true
		})
		return out
	}
	ix, ok := td.indexes.Get(plan.Access.Index.Def.Name())
	if !ok {
		t.Fatalf("no index %s", plan.Access.Index.Def.Name())
	}
	keyCols := ix.KeyColumns()
	err := ix.ScanEncodedRange(nil, nil, func(keyVals []types.Value, rid storage.RID) bool {
		var row types.Row
		if needHeap || !plan.Access.Covering {
			payload, err := td.heap.Get(rid)
			if err != nil {
				t.Fatal(err)
			}
			if row, err = types.DecodeRow(payload); err != nil {
				t.Fatal(err)
			}
		} else {
			row = make(types.Row, schema.Len())
			for i, ord := range keyCols {
				row[ord] = keyVals[i]
			}
		}
		if evalAll(residual, row) {
			out = append(out, matchedRow{rid: rid, row: row})
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// valueGen draws values from small domains, so predicates both match and
// miss: ints around zero and at the extremes, strings over an alphabet
// with 0x00 and 0xFF, of lengths 0 to 3. With span set, ints are drawn
// from the span values around zero instead.
type valueGen struct {
	rng  *rand.Rand
	span int
}

func (g valueGen) value(kind types.Kind) types.Value {
	if kind == types.KindInt && g.span > 0 {
		return types.NewInt(int64(g.rng.Intn(g.span) - g.span/2))
	}
	if kind == types.KindInt {
		switch g.rng.Intn(12) {
		case 0:
			return types.NewInt(math.MinInt64)
		case 1:
			return types.NewInt(math.MaxInt64)
		default:
			return types.NewInt(int64(g.rng.Intn(9) - 4))
		}
	}
	b := make([]byte, g.rng.Intn(4))
	for i := range b {
		b[i] = "\x00a\xffb"[g.rng.Intn(4)]
	}
	return types.NewString(string(b))
}

// conjunct draws a comparison on the column with a random operator; an
// IN list is sorted and deduplicated, as the parser leaves it.
func (g valueGen) conjunct(col types.Column) sql.Comparison {
	c := sql.Comparison{Column: col.Name, Op: sql.CompareOp(g.rng.Intn(6))}
	if c.Op != sql.OpIn {
		c.Value = g.value(col.Kind)
		return c
	}
	for n := 1 + g.rng.Intn(3); n > 0; n-- {
		c.Values = append(c.Values, g.value(col.Kind))
	}
	slices.SortFunc(c.Values, types.Value.Compare)
	c.Values = slices.CompactFunc(c.Values, types.Value.Equal)
	return c
}

// TestScanEquivalence is the differential test of the byte-level scans
// and of the column views kept beside pages and leaves: over random
// schemas mixing INT and STRING columns (every third one all INT, where
// the views serve most conjunct lists), every operator and IN lists,
// heap scans and full index scans (covering, or fetching the heap) must
// return the rows, in the order, and charge the page accesses that
// decoding every row and key before evaluating the residual does. Each
// query runs twice, so the second run reads the views the first built,
// and between rounds of queries a batch of INSERTs, UPDATEs in place,
// UPDATEs that move rows and DELETEs changes random pages and leaves, so
// a view that outlived its page's or leaf's rows would show. The last
// trials are all INT with values over a span of a few thousand, so that
// a bucket of a view's bitmap holds several values (shift > 0), and half
// their literals are a live value or one beside it: the one beside it
// often shares a set bucket although no row holds it.
func TestScanEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	gen := valueGen{rng: rng}
	for trial := 0; trial < 52; trial++ {
		db := New()
		gen.span = 0
		if trial >= 40 {
			gen.span = 2000 + rng.Intn(4000)
		}
		allInt := trial%3 == 0 || gen.span > 0
		var cols []sql.ColumnDef
		for i := 0; i < 1+rng.Intn(4); i++ {
			kind := types.KindInt
			if !allInt && rng.Intn(2) == 0 {
				kind = types.KindString
			}
			cols = append(cols, sql.ColumnDef{Name: fmt.Sprintf("c%d", i), Kind: kind})
		}
		if _, err := db.ExecStmt(&sql.CreateTable{Table: "t", Columns: cols}); err != nil {
			t.Fatal(err)
		}
		td := db.tables["t"]
		schema := td.meta.Schema
		if _, err := db.ExecStmt(randomInsert(gen, schema, 400)); err != nil {
			t.Fatal(err)
		}
		// Indexes on random column sequences.
		var defs []catalog.IndexDef
		for n := 1 + rng.Intn(2); n > 0; n-- {
			perm := rng.Perm(schema.Len())[:1+rng.Intn(schema.Len())]
			def := catalog.IndexDef{Table: "t"}
			for _, ord := range perm {
				def.Columns = append(def.Columns, schema.Columns[ord].Name)
			}
			if _, err := db.ExecStmt(&sql.CreateIndex{Table: "t", Columns: def.Columns}); err == nil {
				defs = append(defs, def)
			}
		}

		for round := 0; round < 5; round++ {
			if round > 0 {
				scanDML(t, db, gen)
			}
			for q := 0; q < 5; q++ {
				var residual []sql.Comparison
				for n := 1 + rng.Intn(3); n > 0; n-- {
					residual = append(residual, gen.conjunct(schema.Columns[rng.Intn(schema.Len())]))
				}
				if gen.span > 0 {
					nearLive(rng, heapRows(t, db), schema, residual)
				}
				plans := []struct {
					plan     *Plan
					needHeap bool
				}{{&Plan{Table: "t", Access: cost.Access{Kind: cost.HeapScan}, Residual: residual}, q%2 == 0}}
				for _, def := range defs {
					ix := &cost.IndexPhys{Def: def}
					plans = append(plans, struct {
						plan     *Plan
						needHeap bool
					}{&Plan{Table: "t", Access: cost.Access{Kind: cost.IndexOnlyScan, Index: ix}, Residual: residual}, q%2 == 0})
					var covered []sql.Comparison
					for _, c := range residual {
						if slices.Contains(def.Columns, c.Column) {
							covered = append(covered, c)
						}
					}
					plans = append(plans, struct {
						plan     *Plan
						needHeap bool
					}{&Plan{Table: "t", Access: cost.Access{Kind: cost.IndexOnlyScan, Index: ix, Covering: true}, Residual: covered}, false})
				}
				for _, pc := range plans {
					for run := 0; run < 2; run++ {
						before := db.access.Snapshot()
						got, err := db.collectRows(td, pc.plan, pc.needHeap)
						if err != nil {
							t.Fatalf("trial %d round %d run %d, %s: %v", trial, round, run, pc.plan, err)
						}
						charged := db.access.Snapshot().Sub(before)
						before = db.access.Snapshot()
						want := oracleCollectRows(t, td, pc.plan, pc.needHeap)
						if oracle := db.access.Snapshot().Sub(before); charged != oracle {
							t.Fatalf("trial %d round %d run %d, %s: charged %+v, the oracle %+v", trial, round, run, pc.plan, charged, oracle)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("trial %d round %d run %d, schema %s, %s (needHeap %v):\n got %v\nwant %v",
								trial, round, run, schema, pc.plan, pc.needHeap, got, want)
						}
					}
				}
			}
		}
	}
}

// nearLive sets the literal of about half the non-IN conjuncts to a value
// of a random live row, or to one more or one less.
func nearLive(rng *rand.Rand, rows []matchedRow, schema *types.Schema, residual []sql.Comparison) {
	for i := range residual {
		c := &residual[i]
		if c.Op == sql.OpIn || len(rows) == 0 || rng.Intn(2) == 0 {
			continue
		}
		v := rows[rng.Intn(len(rows))].row[schema.ColumnIndex(c.Column)].Int
		c.Value = types.NewInt(v + int64(rng.Intn(3)-1))
	}
}

// randomInsert returns an INSERT of n random rows of the schema.
func randomInsert(gen valueGen, schema *types.Schema, n int) *sql.Insert {
	ins := &sql.Insert{Table: "t"}
	for i := 0; i < n; i++ {
		row := make(types.Row, schema.Len())
		for j, c := range schema.Columns {
			row[j] = gen.value(c.Kind)
		}
		ins.Rows = append(ins.Rows, row)
	}
	return ins
}

// scanDML changes a few random rows of t, and with them their pages and
// the leaves of every index: it inserts rows, updates rows in place (an
// INT column to another value, or a STRING column to the empty string),
// updates a STRING column to a longer string, which moves the row, and
// deletes rows. Each UPDATE or DELETE picks a live row and matches the
// rows equal to it in every column.
func scanDML(t *testing.T, db *Database, gen valueGen) {
	t.Helper()
	schema := db.tables["t"].meta.Schema
	rng := gen.rng
	var ints, strs []int
	for i, c := range schema.Columns {
		if c.Kind == types.KindInt {
			ints = append(ints, i)
		} else {
			strs = append(strs, i)
		}
	}
	like := func() *sql.Where {
		rows := heapRows(t, db)
		if len(rows) == 0 {
			return nil
		}
		row := rows[rng.Intn(len(rows))].row
		w := &sql.Where{}
		for i, c := range schema.Columns {
			w.Conjuncts = append(w.Conjuncts, sql.Comparison{Column: c.Name, Op: sql.OpEq, Value: row[i]})
		}
		return w
	}
	exec := func(st sql.Statement) {
		if _, err := db.ExecStmt(st); err != nil {
			t.Fatalf("%s: %v", st, err)
		}
	}
	exec(randomInsert(gen, schema, 1+rng.Intn(20)))
	var edits []func(where *sql.Where) sql.Statement
	for n := 0; n < 2; n++ {
		var set sql.Assignment
		if len(ints) > 0 {
			col := ints[rng.Intn(len(ints))]
			set = sql.Assignment{Column: schema.Columns[col].Name, Value: gen.value(types.KindInt)}
		} else {
			set = sql.Assignment{Column: schema.Columns[strs[0]].Name, Value: types.NewString("")}
		}
		edits = append(edits, func(where *sql.Where) sql.Statement {
			return &sql.Update{Table: "t", Set: []sql.Assignment{set}, Where: where}
		})
	}
	if len(strs) > 0 {
		set := sql.Assignment{Column: schema.Columns[strs[rng.Intn(len(strs))]].Name,
			Value: types.NewString(strings.Repeat("w", 30+rng.Intn(30)))}
		edits = append(edits, func(where *sql.Where) sql.Statement {
			return &sql.Update{Table: "t", Set: []sql.Assignment{set}, Where: where}
		})
	}
	for n := 0; n < 2; n++ {
		edits = append(edits, func(where *sql.Where) sql.Statement { return &sql.Delete{Table: "t", Where: where} })
	}
	// Each UPDATE or DELETE matches a row picked just before it runs.
	for _, edit := range edits {
		if where := like(); where != nil {
			exec(edit(where))
		}
	}
	checkTable(t, db)
}

// FuzzEncodedPredicate: on arbitrary bytes, read as a heap payload and as
// an index key, and an arbitrary predicate of one or two conjuncts over a
// schema of up to six INT or STRING columns, the byte-level filters never
// panic; the row walk accepts exactly what DecodeRow accepts, failing
// with its error; and wherever the decoded row (or key) holds the values
// the conjuncts read, the verdict is the oracle's — otherwise it is an
// error.
func FuzzEncodedPredicate(f *testing.F) {
	row, _ := types.EncodeRow(nil, types.Row{types.NewInt(3), types.NewString("a\x00b"), types.NewInt(-7)})
	f.Add(row, uint8(3), uint8(2), uint8(0), uint8(0x1a), int64(3), int64(4), "a\x00b", "z")
	f.Add(row, uint8(3), uint8(0), uint8(1), uint8(0), int64(3), int64(4), "", "") // an INT column holds a STRING
	ints, _ := types.EncodeRow(nil, types.Row{types.NewInt(1), types.NewInt(2), types.NewInt(3), types.NewInt(4)})
	f.Add(ints, uint8(4), uint8(0), uint8(0x21), uint8(0x35), int64(2), int64(4), "", "")
	badTag := slices.Clone(ints)
	badTag[2+9] = 0x30 // the all-INT length and count, an unknown tag
	f.Add(badTag, uint8(4), uint8(0), uint8(0x21), uint8(0), int64(2), int64(4), "", "")
	key := keyenc.MustEncode(types.NewInt(9), types.NewString("q"))
	f.Add(key, uint8(2), uint8(2), uint8(0x14), uint8(0), int64(9), int64(9), "q", "")
	f.Add(key, uint8(2), uint8(0), uint8(1), uint8(0), int64(9), int64(9), "", "") // an INT key part holds a STRING
	f.Add([]byte{}, uint8(1), uint8(0), uint8(0), uint8(0), int64(0), int64(0), "", "")
	f.Add([]byte{0, 1, 1, 0, 0}, uint8(1), uint8(0), uint8(0), uint8(0), int64(0), int64(0), "", "")
	f.Fuzz(func(t *testing.T, data []byte, ncols, kinds, pred1, pred2 uint8, i1, i2 int64, s1, s2 string) {
		var cols []types.Column
		for i := 0; i < 1+int(ncols%6); i++ {
			kind := types.KindInt
			if kinds>>i&1 == 1 {
				kind = types.KindString
			}
			cols = append(cols, types.Column{Name: fmt.Sprintf("c%d", i), Kind: kind})
		}
		schema := types.MustSchema(cols...)
		conjunct := func(spec uint8) sql.Comparison {
			col := schema.Columns[int(spec&7)%schema.Len()]
			c := sql.Comparison{Column: col.Name, Op: sql.CompareOp(int(spec>>3) % 6)}
			lits := []types.Value{types.NewInt(i1), types.NewInt(i2)}
			if col.Kind == types.KindString {
				lits = []types.Value{types.NewString(s1), types.NewString(s2)}
			}
			if c.Op != sql.OpIn {
				c.Value = lits[spec>>7]
				return c
			}
			if spec>>7 == 0 {
				lits = lits[:1]
			}
			slices.SortFunc(lits, types.Value.Compare)
			c.Values = slices.CompactFunc(lits, types.Value.Equal)
			return c
		}
		conjuncts := []sql.Comparison{conjunct(pred1)}
		if pred2&0x40 != 0 {
			conjuncts = append(conjuncts, conjunct(pred2))
		}
		preds := oraclePreds(t, schema, conjuncts)
		// want evaluates the conjuncts in order on decoded values: ok is the
		// oracle's verdict; evaluable is false where a conjunct's value is
		// missing or of the wrong kind, and the filter must fail there. A key
		// is walked, not located: with keyed set, a conjunct's verdict is
		// specified only when the parts before it hold the schema's kinds.
		want := func(vals []types.Value, keyed bool) (ok, evaluable, specified bool) {
			for _, p := range preds {
				for i := 0; keyed && i < p.ord && i < len(vals); i++ {
					if vals[i].Kind != schema.Columns[i].Kind {
						return false, false, false
					}
				}
				if p.ord >= len(vals) || vals[p.ord].Kind != schema.Columns[p.ord].Kind {
					return false, false, true
				}
				if !p.evalValue(vals[p.ord]) {
					return false, true, true
				}
			}
			return true, true, true
		}

		// The payload.
		_, locErr := types.NewRowLayout(schema).Locate(data)
		decoded, decErr := types.DecodeRow(data)
		if fmt.Sprint(locErr) != fmt.Sprint(decErr) {
			t.Fatalf("Locate error %v, DecodeRow error %v", locErr, decErr)
		}
		rows, err := newRowFilter(schema, conjuncts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rows.match(data)
		switch ok, evaluable, _ := want(decoded, false); {
		case decErr != nil:
			if fmt.Sprint(err) != fmt.Sprint(decErr) {
				t.Fatalf("row filter error %v, DecodeRow error %v", err, decErr)
			}
		case !evaluable:
			if err == nil {
				t.Fatalf("row %v: verdict %v where the oracle cannot evaluate", decoded, got)
			}
		case err != nil || got != ok:
			t.Fatalf("row %v, %v: verdict %v (%v), oracle %v", decoded, conjuncts, got, err, ok)
		}

		// The bytes as an index key over every schema column, in order.
		keyCols := make([]int, schema.Len())
		for i := range keyCols {
			keyCols[i] = i
		}
		keys, err := newKeyFilter(schema, keyCols, conjuncts)
		if err != nil {
			t.Fatal(err)
		}
		got, err = keys.match(data)
		vals, decErr := keyenc.Decode(data)
		if decErr != nil {
			return // a key no index holds: only the absence of a panic counts
		}
		switch ok, evaluable, specified := want(vals, true); {
		case !specified:
		case !evaluable:
			if err == nil {
				t.Fatalf("key %v: verdict %v where the oracle cannot evaluate", vals, got)
			}
		case err != nil || got != ok:
			t.Fatalf("key %v, %v: verdict %v (%v), oracle %v", vals, conjuncts, got, err, ok)
		}
	})
}
