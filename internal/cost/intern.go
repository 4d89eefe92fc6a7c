package cost

import (
	"encoding/binary"
	"math"
	"slices"
	"sync"

	"dyndesign/internal/sql"
)

// CompileKey identifies what CompilePlan reads of a statement: under one
// table description and candidate index list, two statements with equal
// keys compile to plan tables that are equal field for field, bit for bit
// (FuzzPlanKey). A workload of point queries has one key per template and
// histogram bucket, not one per literal.
type CompileKey string

// PlanKey returns stmt's compile key over table t. It is false for a
// statement CompilePlan rejects and for one whose table depends on its
// literals: a column carrying two range bounds, whose combined range the
// seek prices from the literal values.
func PlanKey(stmt sql.Statement, t TablePhys) (CompileKey, bool) {
	b, ok := appendPlanKey(nil, stmt, t)
	if !ok {
		return "", false
	}
	return CompileKey(b), true
}

// appendPlanKey appends stmt's compile key to b. The key holds the
// statement template — kind, table, select list, aggregates, COUNT(*),
// GROUP BY and ORDER BY columns, and per conjunct its column spelling,
// operator, literal kinds and IN-list length — which is everything
// validation, covering and the seek's column matching read, and the
// float64 bits of every histogram-derived number the compile reads: each
// conjunct's conjunctNumbers. An INSERT's table depends only on its row
// count. Neither an INSERT's values nor an UPDATE's SET list is keyed, so
// the statement passes CompilePlan's catalog check before it gets a key:
// a key hit must not skip it.
func appendPlanKey(b []byte, stmt sql.Statement, t TablePhys) ([]byte, bool) {
	if t.check(stmt) != nil {
		return b, false
	}
	var where *sql.Where
	switch s := stmt.(type) {
	case *sql.Select:
		if validateSelect(s, t.Schema) != nil {
			return b, false
		}
		b = append(b, byte(planSelect))
		b = appendString(b, s.Table)
		b = appendBool(b, s.CountStar)
		b = binary.AppendUvarint(b, uint64(len(s.Columns)))
		for _, c := range s.Columns {
			b = appendString(b, c)
		}
		b = binary.AppendUvarint(b, uint64(len(s.Items)))
		for _, it := range s.Items {
			b = appendBool(b, it.IsAgg)
			b = appendString(b, it.Col)
			b = append(b, byte(it.Agg.Func))
			b = appendString(b, it.Agg.Column)
		}
		b = appendString(b, s.GroupBy)
		b = appendBool(b, s.Order != nil)
		if s.Order != nil {
			b = appendString(b, s.Order.Column)
		}
		where = s.Where
	case *sql.Insert:
		b = append(b, byte(planInsert))
		b = appendString(b, s.Table)
		return binary.AppendUvarint(b, uint64(len(s.Rows))), true
	case *sql.Update:
		if validateSelect(&sql.Select{Where: s.Where}, t.Schema) != nil {
			return b, false
		}
		b = append(b, byte(planUpdate))
		b = appendString(b, s.Table)
		where = s.Where
	case *sql.Delete:
		if validateSelect(&sql.Select{Where: s.Where}, t.Schema) != nil {
			return b, false
		}
		b = append(b, byte(planDelete))
		b = appendString(b, s.Table)
		where = s.Where
	default:
		return b, false
	}
	var conjuncts []sql.Comparison
	if where != nil {
		conjuncts = where.Conjuncts
	}
	b = binary.AppendUvarint(b, uint64(len(conjuncts)))
	for i, c := range conjuncts {
		if isRangeOp(c.Op) {
			ord := t.Schema.ColumnIndex(c.Column)
			for _, o := range conjuncts[:i] {
				if isRangeOp(o.Op) && t.Schema.ColumnIndex(o.Column) == ord {
					return b, false // a combined range
				}
			}
		}
		b = appendString(b, c.Column)
		b = append(b, byte(c.Op))
		if c.Op == sql.OpIn {
			b = binary.AppendUvarint(b, uint64(len(c.Values)))
			for _, v := range c.Values {
				b = append(b, byte(v.Kind))
			}
		} else {
			b = append(b, byte(c.Value.Kind))
		}
		sel, seekSel := conjunctNumbers(t, c)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(sel))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(seekSel))
	}
	return b, true
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// PlanSet compiles statements into plan tables over one table
// description and candidate index list, holding each distinct table once.
// A statement whose compile key the set has seen shares that key's table
// without compiling; any other is compiled and then deduplicated by
// content against every table the set holds, so statements of different
// keys that price every configuration alike (point queries on one column
// whose seeks cost the same) share one table too. Sharing is what lets
// RowKernel.Fill fold a segment by configuration classes. Failures are
// not remembered. Safe for concurrent use.
type PlanSet struct {
	t       TablePhys
	indexes []IndexPhys

	// mu is read-locked by key hits, which outnumber inserts by two
	// orders of magnitude when a window's rows compile in parallel (with
	// a plain mutex the workers spun on it in a CPU profile).
	mu        sync.RWMutex
	byKey     map[string]*PlanTable
	byContent map[uint64][]*PlanTable
	bytes     int64
}

// NewPlanSet returns an empty set over t and indexes, which it retains.
func NewPlanSet(t TablePhys, indexes []IndexPhys) *PlanSet {
	return &PlanSet{
		t: t, indexes: indexes,
		byKey:     make(map[string]*PlanTable),
		byContent: make(map[uint64][]*PlanTable),
	}
}

// Compile returns stmt's plan table — equal, bit for bit, to what
// CompilePlan(stmt, t, indexes) returns — or CompilePlan's error.
func (s *PlanSet) Compile(stmt sql.Statement) (*PlanTable, error) {
	var buf [128]byte
	key, keyed := appendPlanKey(buf[:0], stmt, s.t)
	if keyed {
		s.mu.RLock()
		pt := s.byKey[string(key)] // no allocation: the conversion only looks up
		s.mu.RUnlock()
		if pt != nil {
			return pt, nil
		}
	}
	pt, err := CompilePlan(stmt, s.t, s.indexes)
	if err != nil {
		return nil, err
	}
	h := pt.contentHash()
	s.mu.Lock()
	defer s.mu.Unlock()
	if i := slices.IndexFunc(s.byContent[h], pt.sameContent); i >= 0 {
		pt = s.byContent[h][i]
	} else {
		s.byContent[h] = append(s.byContent[h], pt)
		s.bytes += int64(pt.Bytes())
	}
	if keyed {
		s.byKey[string(key)] = pt
	}
	return pt, nil
}

// Bytes is the heap the set's distinct tables retain.
func (s *PlanSet) Bytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bytes
}

// sameContent reports whether o holds, bit for bit, every value Cost
// reads of pt: the kind, masks, heap cost, row factor, maintenance
// increments and projection — or, without a projection, the path costs
// it stands for.
func (pt *PlanTable) sameContent(o *PlanTable) bool {
	return pt.kind == o.kind && pt.allMask == o.allMask && pt.relevant == o.relevant &&
		math.Float64bits(pt.heapCost) == math.Float64bits(o.heapCost) &&
		math.Float64bits(pt.rows) == math.Float64bits(o.rows) &&
		sameBits(pt.maint, o.maint) && sameBits(pt.proj, o.proj) &&
		(pt.proj != nil || sameBits(pt.pathCost, o.pathCost))
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// contentHash hashes what sameContent compares.
func (pt *PlanTable) contentHash() uint64 {
	h := uint64(pt.kind)
	mix := func(v uint64) { h = (h ^ v) * 0x100000001b3 }
	mix(pt.allMask)
	mix(pt.relevant)
	mix(math.Float64bits(pt.heapCost))
	mix(math.Float64bits(pt.rows))
	for _, v := range pt.maint {
		mix(math.Float64bits(v))
	}
	for _, v := range pt.proj {
		mix(math.Float64bits(v))
	}
	if pt.proj == nil {
		for _, v := range pt.pathCost {
			mix(math.Float64bits(v))
		}
	}
	return h
}
