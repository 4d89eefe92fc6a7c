package types

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	if KindInt.String() != "INT" {
		t.Errorf("KindInt.String() = %q", KindInt.String())
	}
	if KindString.String() != "STRING" {
		t.Errorf("KindString.String() = %q", KindString.String())
	}
	if !strings.Contains(KindInvalid.String(), "INVALID") {
		t.Errorf("KindInvalid.String() = %q", KindInvalid.String())
	}
}

func TestParseKind(t *testing.T) {
	cases := []struct {
		in   string
		want Kind
		ok   bool
	}{
		{"INT", KindInt, true},
		{"integer", KindInt, true},
		{"BigInt", KindInt, true},
		{"INT8", KindInt, true},
		{"STRING", KindString, true},
		{"text", KindString, true},
		{"VARCHAR", KindString, true},
		{"char", KindString, true},
		{"FLOAT", KindInvalid, false},
		{"", KindInvalid, false},
	}
	for _, c := range cases {
		got, err := ParseKind(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseKind(%q) succeeded, want error", c.in)
		}
	}
}

func TestValueConstructorsAndValidity(t *testing.T) {
	if v := NewInt(42); !v.IsValid() || v.Kind != KindInt || v.Int != 42 {
		t.Errorf("NewInt(42) = %+v", v)
	}
	if v := NewString("x"); !v.IsValid() || v.Kind != KindString || v.Str != "x" {
		t.Errorf("NewString(x) = %+v", v)
	}
	if (Value{}).IsValid() {
		t.Error("zero Value should be invalid")
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{NewInt(-7), "-7"},
		{NewInt(0), "0"},
		{NewString("abc"), "'abc'"},
		{NewString("o'brien"), "'o''brien'"},
		{Value{}, "<invalid>"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%+v.String() = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(1), 1},
		{NewInt(5), NewInt(5), 0},
		{NewInt(math.MinInt64), NewInt(math.MaxInt64), -1},
		{NewString("a"), NewString("b"), -1},
		{NewString("b"), NewString("a"), 1},
		{NewString("same"), NewString("same"), 0},
	}
	for _, c := range cases {
		got := c.a.Compare(c.b)
		if sign(got) != c.want {
			t.Errorf("Compare(%v, %v) = %d, want sign %d", c.a, c.b, got, c.want)
		}
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	default:
		return 0
	}
}

func TestValueCompareCrossKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("cross-kind Compare did not panic")
		}
	}()
	NewInt(1).Compare(NewString("1"))
}

func TestValueCompareInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid Compare did not panic")
		}
	}()
	var a, b Value
	a.Compare(b)
}

func TestRowCloneIsIndependent(t *testing.T) {
	r := Row{NewInt(1), NewString("x")}
	c := r.Clone()
	if !r.Equal(c) {
		t.Fatal("clone not equal to original")
	}
	c[0] = NewInt(99)
	if r[0].Int != 1 {
		t.Error("mutating clone affected original")
	}
}

func TestRowEqual(t *testing.T) {
	a := Row{NewInt(1), NewString("x")}
	b := Row{NewInt(1), NewString("x")}
	if !a.Equal(b) {
		t.Error("identical rows not equal")
	}
	if a.Equal(Row{NewInt(1)}) {
		t.Error("rows of different arity equal")
	}
	if a.Equal(Row{NewInt(2), NewString("x")}) {
		t.Error("rows with different values equal")
	}
}

func TestRowString(t *testing.T) {
	r := Row{NewInt(1), NewString("hi")}
	if got := r.String(); got != "(1, 'hi')" {
		t.Errorf("Row.String() = %q", got)
	}
}

func TestNewSchemaValidation(t *testing.T) {
	if _, err := NewSchema(); err == nil {
		t.Error("empty schema accepted")
	}
	if _, err := NewSchema(Column{Name: "", Kind: KindInt}); err == nil {
		t.Error("empty column name accepted")
	}
	if _, err := NewSchema(Column{Name: "a", Kind: KindInvalid}); err == nil {
		t.Error("invalid kind accepted")
	}
	if _, err := NewSchema(Column{Name: "a", Kind: KindInt}, Column{Name: "A", Kind: KindInt}); err == nil {
		t.Error("case-insensitive duplicate column accepted")
	}
	s, err := NewSchema(Column{Name: "a", Kind: KindInt}, Column{Name: "b", Kind: KindString})
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	if s.Len() != 2 {
		t.Errorf("Len() = %d", s.Len())
	}
}

func TestMustSchemaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustSchema on bad input did not panic")
		}
	}()
	MustSchema()
}

func TestSchemaColumnIndex(t *testing.T) {
	s := MustSchema(Column{Name: "alpha", Kind: KindInt}, Column{Name: "Beta", Kind: KindString})
	if i := s.ColumnIndex("alpha"); i != 0 {
		t.Errorf("ColumnIndex(alpha) = %d", i)
	}
	if i := s.ColumnIndex("BETA"); i != 1 {
		t.Errorf("case-insensitive ColumnIndex(BETA) = %d", i)
	}
	if i := s.ColumnIndex("gamma"); i != -1 {
		t.Errorf("ColumnIndex(gamma) = %d", i)
	}
}

// TestColumnIndexEverySpelling checks ColumnIndex's exact-spelling fast
// path against the case-folding scan it runs ahead of: for every column
// of schemas whose names share letters, prefixes and lengths, every
// upper/lower spelling of the name finds the column's ordinal, as the
// first case-insensitive match does; names no column has find none.
func TestColumnIndexEverySpelling(t *testing.T) {
	for _, names := range [][]string{
		{"a", "b", "c", "d"},
		{"ab", "Ab2", "abc", "aBcD", "x_y"},
		{"Alpha", "beta", "GAMMA", "alphabet", "b"},
	} {
		cols := make([]Column, len(names))
		for i, n := range names {
			cols[i] = Column{Name: n, Kind: KindInt}
		}
		s := MustSchema(cols...)
		fold := func(name string) int {
			for i, c := range s.Columns {
				if strings.EqualFold(c.Name, name) {
					return i
				}
			}
			return -1
		}
		for ord, n := range names {
			for mask := 0; mask < 1<<len(n); mask++ {
				b := []byte(n)
				for i := range b {
					if mask>>i&1 == 1 {
						b[i] = strings.ToUpper(string(b[i]))[0]
					} else {
						b[i] = strings.ToLower(string(b[i]))[0]
					}
				}
				if got := s.ColumnIndex(string(b)); got != ord || got != fold(string(b)) {
					t.Fatalf("schema %v: ColumnIndex(%q) = %d, want %d", names, b, got, ord)
				}
			}
		}
		for _, missing := range []string{"", "z", "ab ", "alph", names[0] + "x"} {
			if got, want := s.ColumnIndex(missing), fold(missing); got != want {
				t.Fatalf("schema %v: ColumnIndex(%q) = %d, the folding scan says %d", names, missing, got, want)
			}
		}
	}
}

func TestSchemaColumnNames(t *testing.T) {
	s := MustSchema(Column{Name: "a", Kind: KindInt}, Column{Name: "b", Kind: KindString})
	names := s.ColumnNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("ColumnNames() = %v", names)
	}
}

func TestSchemaValidateRow(t *testing.T) {
	s := MustSchema(Column{Name: "a", Kind: KindInt}, Column{Name: "b", Kind: KindString})
	if err := s.Validate(Row{NewInt(1), NewString("x")}); err != nil {
		t.Errorf("valid row rejected: %v", err)
	}
	if err := s.Validate(Row{NewInt(1)}); err == nil {
		t.Error("short row accepted")
	}
	if err := s.Validate(Row{NewString("x"), NewString("y")}); err == nil {
		t.Error("kind mismatch accepted")
	}
}

func TestSchemaString(t *testing.T) {
	s := MustSchema(Column{Name: "a", Kind: KindInt}, Column{Name: "b", Kind: KindString})
	if got := s.String(); got != "(a INT, b STRING)" {
		t.Errorf("Schema.String() = %q", got)
	}
}

func TestCompareIsTotalOrderProperty(t *testing.T) {
	// Antisymmetry and transitivity-ish sanity via quick: for random int
	// triples, Compare behaves like integer comparison.
	f := func(a, b int64) bool {
		got := NewInt(a).Compare(NewInt(b))
		want := 0
		if a < b {
			want = -1
		} else if a > b {
			want = 1
		}
		return sign(got) == want && sign(NewInt(b).Compare(NewInt(a))) == -want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
