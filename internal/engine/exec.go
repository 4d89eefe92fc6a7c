package engine

import (
	"fmt"
	"sort"

	"dyndesign/internal/cost"
	"dyndesign/internal/keyenc"
	"dyndesign/internal/sql"
	"dyndesign/internal/storage"
	"dyndesign/internal/types"
)

// seekBounds builds the encoded key range [low, high) for an index seek
// from the equality prefix and optional range spec.
func seekBounds(a *cost.Access) (low, high []byte, err error) {
	prefix, err := keyenc.Encode(a.EqVals...)
	if err != nil {
		return nil, nil, err
	}
	if a.Range == nil {
		if len(prefix) == 0 {
			return nil, nil, nil
		}
		return prefix, keyenc.PrefixSuccessor(prefix), nil
	}
	r := a.Range
	low = prefix
	if r.Low != nil {
		lowKey, err := keyenc.AppendValue(append([]byte(nil), prefix...), *r.Low)
		if err != nil {
			return nil, nil, err
		}
		if r.LowInclusive {
			low = lowKey
		} else {
			low = keyenc.PrefixSuccessor(lowKey)
		}
	}
	if r.High != nil {
		highKey, err := keyenc.AppendValue(append([]byte(nil), prefix...), *r.High)
		if err != nil {
			return nil, nil, err
		}
		if r.HighInclusive {
			high = keyenc.PrefixSuccessor(highKey)
		} else {
			high = highKey
		}
	} else if len(prefix) > 0 {
		high = keyenc.PrefixSuccessor(prefix)
	}
	if len(low) == 0 {
		low = nil
	}
	return low, high, nil
}

// matchedRow is a row located by an access path, with its RID when the
// heap was (or can be) involved.
type matchedRow struct {
	rid storage.RID
	row types.Row
}

// scanPart is what an access path collects: its matching rows in order,
// and the error that ended it.
type scanPart struct {
	rows []matchedRow
	err  error
}

// collectRows runs the access path and returns the matching rows after
// residual filtering, in access-path order. Residuals are tested on the
// encoded heap payload or index key (filter.go); only matching rows are
// decoded. For covering paths the returned rows are sparse: only the
// index key columns are populated; a caller needing all columns must use
// needHeap=true to force heap fetches.
//
// Full scans — heap scans and covering index-only scans — hand their
// loop one heap page or one leaf per call (scanPage, keyScan.leaf),
// which tests the page's or leaf's column view where one serves
// (colview.go). Every path collects into one part on the caller; the
// first error ends it and is the result, with no rows. Nothing mutates
// the table meanwhile: the caller holds db.mu, and UPDATE and DELETE
// mutate only after collecting.
func (db *Database) collectRows(td *tableData, plan *Plan, needHeap bool) ([]matchedRow, error) {
	schema := td.meta.Schema
	rows, err := newRowFilter(schema, plan.Residual)
	if err != nil {
		return nil, err
	}
	var part scanPart
	a := &plan.Access
	switch a.Kind {
	case cost.HeapScan:
		td.heap.ScanPages(func(p *storage.Page) bool { return rows.scanPage(p, &part) })

	case cost.IndexSeek, cost.IndexOnlyScan:
		ix, ok := td.indexes.Get(a.Index.Def.Name())
		if !ok {
			return nil, fmt.Errorf("engine: planned index %s vanished", a.Index.Def.Name())
		}
		// An access path is one key range, except an IN seek, which runs
		// one sub-range per listed value.
		type keyRange struct{ low, high []byte }
		var ranges []keyRange
		switch {
		case a.Kind == cost.IndexSeek && a.In != nil:
			for _, v := range a.In {
				prefix, err := keyenc.Encode(append(append([]types.Value(nil), a.EqVals...), v)...)
				if err != nil {
					return nil, err
				}
				ranges = append(ranges, keyRange{prefix, keyenc.PrefixSuccessor(prefix)})
			}
		case a.Kind == cost.IndexSeek:
			low, high, err := seekBounds(a)
			if err != nil {
				return nil, err
			}
			ranges = append(ranges, keyRange{low, high})
		default:
			ranges = append(ranges, keyRange{nil, nil})
		}
		if needHeap || !a.Covering {
			for _, kr := range ranges {
				err := ix.ScanEncodedRange(kr.low, kr.high, func(_ []types.Value, rid storage.RID) bool {
					payload, err := td.heap.Get(rid)
					if err != nil {
						part.err = err
						return false
					}
					return rows.collect(rid, payload, &part)
				})
				if err != nil {
					return nil, err
				}
				if part.err != nil {
					break
				}
			}
			break
		}
		// Covering path: the residual is tested on the key bytes and a
		// (sparse) row is decoded only for matches.
		keyCols := ix.KeyColumns()
		keys, err := newKeyFilter(schema, keyCols, plan.Residual)
		if err != nil {
			return nil, err
		}
		s := &keyScan{filter: keys, cols: keyCols, width: schema.Len(), part: &part}
		if a.Kind == cost.IndexOnlyScan {
			// An index-only scan visits every leaf.
			s.viewPreds, s.viewCols = keys.view()
			ix.ScanLeaves(s.leaf)
			break
		}
		for _, kr := range ranges {
			ix.ScanKeys(kr.low, kr.high, s.entry)
			if part.err != nil {
				break
			}
		}

	default:
		return nil, fmt.Errorf("engine: unknown access kind %v", a.Kind)
	}
	if part.err != nil {
		return nil, part.err
	}
	return part.rows, nil
}

// scanPage is a heap scan's page loop: it tests the live rows of p in
// slot order and appends each match, decoded into a row of its own, to
// part. At the first payload the filter rejects it sets part.err and
// reports false. Where p's column view serves the predicates it tests
// them there (scanView); the row loop below runs everywhere else.
func (f *rowFilter) scanPage(p *storage.Page, part *scanPart) bool {
	if f.viewCols != nil {
		if v := f.pageView(p); v != nil {
			return f.scanView(p, v, part)
		}
	}
	for i := range p.Slots() {
		payload, live := p.Live(i)
		if !live {
			continue
		}
		if ok, err := f.match(payload); err != nil || ok {
			if !f.keep(storage.RID{Page: p.ID(), Slot: uint16(i)}, payload, err, part) {
				return false
			}
		}
	}
	return true
}

// collect is scanPage for one row, the heap fetch of an index seek.
func (f *rowFilter) collect(rid storage.RID, payload []byte, part *scanPart) bool {
	if ok, err := f.match(payload); err != nil || ok {
		return f.keep(rid, payload, err, part)
	}
	return true
}

// keep appends the matching row at rid to part, or, when the filter
// failed with err, sets part.err and reports false.
func (f *rowFilter) keep(rid storage.RID, payload []byte, err error, part *scanPart) bool {
	var row types.Row
	if err == nil {
		row, err = types.DecodeRowInto(make(types.Row, 0, f.width), payload)
	}
	if err != nil {
		part.err = err
		return false
	}
	part.rows = append(part.rows, matchedRow{rid: rid, row: row})
	return true
}

// keyScan is a covering index scan's collector: it tests raw keys with
// its filter and appends each match to part, decoded into a sparse row
// that holds only the key columns.
type keyScan struct {
	filter  keyFilter
	cols    []int // the key columns' ordinals in the table schema
	width   int   // the table's number of columns
	keyVals []types.Value
	part    *scanPart
	// viewPreds and viewCols are the filter's predicates and the key
	// parts they read when a leaf's column view can serve them all
	// (colview.go), else nil.
	viewPreds []bytePred
	viewCols  []colRef
	scratch   viewScratch
}

// leaf is an index-only scan's leaf loop: it tests one leaf's keys in
// order and reports false, with part.err set, at the first key the
// filter rejects. Where the leaf's column view serves the predicates it
// tests them there; the key loop below runs everywhere else.
func (s *keyScan) leaf(keys [][]byte, rids []storage.RID, view *any) bool {
	if s.viewCols != nil {
		if v := s.leafView(keys, view); v != nil {
			s.scratch.match(v, s.viewPreds)
			for _, i := range s.scratch.cand {
				if !s.keep(keys[i], rids[i], nil) {
					return false
				}
			}
			return true
		}
	}
	for i, k := range keys {
		if ok, err := s.filter.match(k); err != nil || ok {
			if !s.keep(k, rids[i], err) {
				return false
			}
		}
	}
	return true
}

// entry is leaf for one entry, the callback of a covering seek.
func (s *keyScan) entry(key []byte, rid storage.RID) bool {
	if ok, err := s.filter.match(key); err != nil || ok {
		return s.keep(key, rid, err)
	}
	return true
}

// keep appends the matching entry to part, or, when the filter failed
// with err, sets part.err and reports false.
func (s *keyScan) keep(key []byte, rid storage.RID, err error) bool {
	if err == nil {
		s.keyVals, err = keyenc.DecodeInto(s.keyVals, key)
	}
	if err != nil {
		s.part.err = err
		return false
	}
	row := make(types.Row, s.width)
	for i, ord := range s.cols {
		row[ord] = s.keyVals[i]
	}
	s.part.rows = append(s.part.rows, matchedRow{rid: rid, row: row})
	return true
}

func (db *Database) execSelect(s *sql.Select) (*Result, error) {
	td, err := db.table(s.Table)
	if err != nil {
		return nil, err
	}
	plan, err := db.planSelectLocked(td, s)
	if err != nil {
		return nil, err
	}
	matched, err := db.collectRows(td, plan, false)
	if err != nil {
		return nil, err
	}
	res := &Result{Plan: plan}

	if s.CountStar {
		res.Count = int64(len(matched))
		res.Columns = []string{"COUNT(*)"}
		return res, nil
	}
	if s.HasAggregates() {
		return db.execAggregates(td, s, matched, plan)
	}

	schema := td.meta.Schema
	// Resolve the projection.
	var projOrds []int
	if len(s.Columns) == 0 {
		projOrds = make([]int, schema.Len())
		for i := range projOrds {
			projOrds[i] = i
		}
		res.Columns = schema.ColumnNames()
	} else {
		for _, name := range s.Columns {
			ord := schema.ColumnIndex(name)
			if ord < 0 {
				return nil, fmt.Errorf("engine: unknown column %q", name)
			}
			projOrds = append(projOrds, ord)
			res.Columns = append(res.Columns, schema.Columns[ord].Name)
		}
	}

	// Order before projecting so ORDER BY columns need not be projected.
	if s.Order != nil {
		ord := schema.ColumnIndex(s.Order.Column)
		if ord < 0 {
			return nil, fmt.Errorf("engine: unknown column %q", s.Order.Column)
		}
		desc := s.Order.Desc
		sort.SliceStable(matched, func(i, j int) bool {
			c := matched[i].row[ord].Compare(matched[j].row[ord])
			if desc {
				return c > 0
			}
			return c < 0
		})
	}
	// With DISTINCT the limit applies to deduplicated rows, so it is
	// deferred until after projection and dedup.
	if !s.Distinct && s.Limit >= 0 && int64(len(matched)) > s.Limit {
		matched = matched[:s.Limit]
	}

	res.Rows = make([]types.Row, len(matched))
	for i, m := range matched {
		row := make(types.Row, len(projOrds))
		for j, ord := range projOrds {
			row[j] = m.row[ord]
		}
		res.Rows[i] = row
	}
	if s.Distinct {
		// Deduplicate projected rows, keeping first occurrences (which
		// preserves any ORDER BY ordering).
		seen := make(map[string]struct{}, len(res.Rows))
		kept := res.Rows[:0]
		for _, row := range res.Rows {
			key, err := keyenc.Encode(row...)
			if err != nil {
				return nil, err
			}
			if _, dup := seen[string(key)]; dup {
				continue
			}
			seen[string(key)] = struct{}{}
			kept = append(kept, row)
		}
		res.Rows = kept
		if s.Limit >= 0 && int64(len(res.Rows)) > s.Limit {
			res.Rows = res.Rows[:s.Limit]
		}
	}
	res.Count = int64(len(res.Rows))
	return res, nil
}

// aggState accumulates one aggregate over one group.
type aggState struct {
	count    int64
	sum      int64
	min, max types.Value
	seen     bool
}

func (a *aggState) add(v types.Value) {
	a.count++
	if v.Kind == types.KindInt {
		a.sum += v.Int
	}
	if !a.seen {
		a.min, a.max, a.seen = v, v, true
		return
	}
	if v.Compare(a.min) < 0 {
		a.min = v
	}
	if v.Compare(a.max) > 0 {
		a.max = v
	}
}

// result renders the accumulator for one aggregate function. Aggregates
// over an empty group yield COUNT 0 and integer 0 otherwise (the dialect
// has no NULL); grouped queries never produce empty groups.
func (a *aggState) result(fn sql.AggFunc) types.Value {
	switch fn {
	case sql.AggCount:
		return types.NewInt(a.count)
	case sql.AggMin:
		if !a.seen {
			return types.NewInt(0)
		}
		return a.min
	case sql.AggMax:
		if !a.seen {
			return types.NewInt(0)
		}
		return a.max
	case sql.AggSum:
		return types.NewInt(a.sum)
	default: // AggAvg: integer average, truncating
		if a.count == 0 {
			return types.NewInt(0)
		}
		return types.NewInt(a.sum / a.count)
	}
}

// execAggregates evaluates an aggregate select list (with optional
// GROUP BY) over the matched rows.
func (db *Database) execAggregates(td *tableData, s *sql.Select, matched []matchedRow, plan *Plan) (*Result, error) {
	schema := td.meta.Schema
	groupOrd := -1
	if s.GroupBy != "" {
		groupOrd = schema.ColumnIndex(s.GroupBy)
		if groupOrd < 0 {
			return nil, fmt.Errorf("engine: unknown column %q", s.GroupBy)
		}
	}
	// Resolve aggregate input ordinals in Items order (-1 = COUNT(*)).
	type aggItem struct {
		fn  sql.AggFunc
		ord int
	}
	var aggs []aggItem
	for _, it := range s.Items {
		if !it.IsAgg {
			continue
		}
		ord := -1
		if it.Agg.Column != "" {
			ord = schema.ColumnIndex(it.Agg.Column)
			if ord < 0 {
				return nil, fmt.Errorf("engine: unknown column %q", it.Agg.Column)
			}
		}
		aggs = append(aggs, aggItem{fn: it.Agg.Func, ord: ord})
	}

	type group struct {
		key    types.Value
		states []aggState
	}
	groups := make(map[types.Value]*group)
	var order []*group
	singleKey := types.NewInt(0) // the one group of an ungrouped query
	for _, m := range matched {
		key := singleKey
		if groupOrd >= 0 {
			key = m.row[groupOrd]
		}
		g, ok := groups[key]
		if !ok {
			g = &group{key: key, states: make([]aggState, len(aggs))}
			groups[key] = g
			order = append(order, g)
		}
		for i, a := range aggs {
			if a.ord < 0 {
				g.states[i].count++
				continue
			}
			g.states[i].add(m.row[a.ord])
		}
	}
	if groupOrd < 0 && len(order) == 0 {
		// Aggregates over an empty, ungrouped input yield one row.
		order = append(order, &group{key: singleKey, states: make([]aggState, len(aggs))})
	}

	// Deterministic group order: by key, honouring ORDER BY direction
	// (validated to be the group column).
	desc := s.Order != nil && s.Order.Desc
	sort.SliceStable(order, func(i, j int) bool {
		c := order[i].key.Compare(order[j].key)
		if desc {
			return c > 0
		}
		return c < 0
	})
	if s.Limit >= 0 && int64(len(order)) > s.Limit {
		order = order[:s.Limit]
	}

	res := &Result{Plan: plan}
	for _, it := range s.Items {
		res.Columns = append(res.Columns, it.String())
	}
	for _, g := range order {
		row := make(types.Row, 0, len(s.Items))
		ai := 0
		for _, it := range s.Items {
			if it.IsAgg {
				row = append(row, g.states[ai].result(it.Agg.Func))
				ai++
			} else {
				row = append(row, g.key)
			}
		}
		res.Rows = append(res.Rows, row)
	}
	res.Count = int64(len(res.Rows))
	return res, nil
}

func (db *Database) execUpdate(s *sql.Update) (*Result, error) {
	td, err := db.table(s.Table)
	if err != nil {
		return nil, err
	}
	schema := td.meta.Schema
	if err := td.meta.CheckStatement(s); err != nil {
		return nil, err
	}
	type setOp struct {
		ord int
		val types.Value
	}
	sets := make([]setOp, len(s.Set))
	for i, a := range s.Set {
		sets[i] = setOp{ord: schema.ColumnIndex(a.Column), val: a.Value}
	}
	probe := &sql.Select{Table: s.Table, Where: s.Where, Limit: -1}
	plan, err := db.planSelectLocked(td, probe)
	if err != nil {
		return nil, err
	}
	// Materialize matches with full rows before mutating anything.
	matched, err := db.collectRows(td, plan, true)
	if err != nil {
		return nil, err
	}
	for _, m := range matched {
		newRow := m.row.Clone()
		for _, op := range sets {
			newRow[op.ord] = op.val
		}
		payload, err := types.EncodeRow(nil, newRow)
		if err != nil {
			return nil, err
		}
		newRID, err := td.heap.Update(m.rid, payload)
		if err != nil {
			return nil, err
		}
		if err := td.indexes.OnUpdate(m.row, m.rid, newRow, newRID); err != nil {
			return nil, err
		}
	}
	return &Result{Count: int64(len(matched)), Plan: plan}, nil
}

func (db *Database) execDelete(s *sql.Delete) (*Result, error) {
	td, err := db.table(s.Table)
	if err != nil {
		return nil, err
	}
	probe := &sql.Select{Table: s.Table, Where: s.Where, Limit: -1}
	plan, err := db.planSelectLocked(td, probe)
	if err != nil {
		return nil, err
	}
	matched, err := db.collectRows(td, plan, true)
	if err != nil {
		return nil, err
	}
	for _, m := range matched {
		if err := td.heap.Delete(m.rid); err != nil {
			return nil, err
		}
		if err := td.indexes.OnDelete(m.row, m.rid); err != nil {
			return nil, err
		}
	}
	return &Result{Count: int64(len(matched)), Plan: plan}, nil
}
