// Package types defines the value, row, and schema primitives shared by
// every layer of the engine: storage, indexing, SQL execution, statistics,
// and the physical-design cost model.
//
// The type system is deliberately small — 64-bit integers and strings —
// because that is all the paper's workloads require, but the layering
// (typed values with total ordering and a stable binary codec) is the same
// one a larger engine would use.
package types

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind enumerates the supported column types.
type Kind uint8

const (
	// KindInvalid is the zero Kind; it never describes a real column.
	KindInvalid Kind = iota
	// KindInt is a signed 64-bit integer column.
	KindInt
	// KindString is a variable-length UTF-8 string column.
	KindString
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "INT"
	case KindString:
		return "STRING"
	default:
		return fmt.Sprintf("INVALID(%d)", uint8(k))
	}
}

// ParseKind converts a SQL type name to a Kind. It accepts the common
// aliases used in CREATE TABLE statements.
func ParseKind(name string) (Kind, error) {
	switch strings.ToUpper(name) {
	case "INT", "INTEGER", "BIGINT", "INT8":
		return KindInt, nil
	case "STRING", "TEXT", "VARCHAR", "CHAR":
		return KindString, nil
	default:
		return KindInvalid, fmt.Errorf("types: unknown type name %q", name)
	}
}

// Value is a single typed datum. Exactly one of the payload fields is
// meaningful, selected by Kind. The zero Value is invalid.
type Value struct {
	Kind Kind
	Int  int64
	Str  string
}

// NewInt returns an integer value.
func NewInt(v int64) Value { return Value{Kind: KindInt, Int: v} }

// NewString returns a string value.
func NewString(s string) Value { return Value{Kind: KindString, Str: s} }

// IsValid reports whether the value has a concrete kind.
func (v Value) IsValid() bool { return v.Kind == KindInt || v.Kind == KindString }

// String renders the value as a SQL literal.
func (v Value) String() string {
	switch v.Kind {
	case KindInt:
		return strconv.FormatInt(v.Int, 10)
	case KindString:
		return "'" + strings.ReplaceAll(v.Str, "'", "''") + "'"
	default:
		return "<invalid>"
	}
}

// Compare totally orders two values of the same kind. It returns a
// negative number, zero, or a positive number as v is less than, equal
// to, or greater than other. Comparing values of different kinds panics:
// the planner type-checks predicates before execution, so a cross-kind
// comparison is always a programming error.
func (v Value) Compare(other Value) int {
	if v.Kind != other.Kind {
		panic(fmt.Sprintf("types: comparing %s to %s", v.Kind, other.Kind))
	}
	switch v.Kind {
	case KindInt:
		switch {
		case v.Int < other.Int:
			return -1
		case v.Int > other.Int:
			return 1
		default:
			return 0
		}
	case KindString:
		return strings.Compare(v.Str, other.Str)
	default:
		panic("types: comparing invalid values")
	}
}

// Equal reports whether two values have the same kind and payload.
func (v Value) Equal(other Value) bool {
	return v.Kind == other.Kind && v.Compare(other) == 0
}

// EncodedSize returns the number of bytes the row codec uses for the
// value, including its 1-byte kind tag.
func (v Value) EncodedSize() int {
	switch v.Kind {
	case KindInt:
		return 1 + 8
	case KindString:
		return 1 + 4 + len(v.Str)
	default:
		return 1
	}
}

// Row is an ordered tuple of values matching some Schema.
type Row []Value

// Clone returns a deep copy of the row. Values are copied by value, so
// the clone shares no mutable state with the original.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Equal reports element-wise equality of two rows.
func (r Row) Equal(other Row) bool {
	if len(r) != len(other) {
		return false
	}
	for i := range r {
		if !r[i].Equal(other[i]) {
			return false
		}
	}
	return true
}

// String renders the row as a parenthesized value list.
func (r Row) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range r {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}

// EncodedSize returns the byte length of the row under the row codec.
func (r Row) EncodedSize() int {
	n := 2 // uint16 column count
	for _, v := range r {
		n += v.EncodedSize()
	}
	return n
}

// Column describes one column of a table schema.
type Column struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of named, typed columns.
type Schema struct {
	Columns []Column
}

// NewSchema builds a schema from column definitions, rejecting duplicate
// names and invalid kinds.
func NewSchema(cols ...Column) (*Schema, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("types: schema must have at least one column")
	}
	seen := make(map[string]struct{}, len(cols))
	for _, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("types: empty column name")
		}
		if c.Kind != KindInt && c.Kind != KindString {
			return nil, fmt.Errorf("types: column %q has invalid kind", c.Name)
		}
		lower := strings.ToLower(c.Name)
		if _, dup := seen[lower]; dup {
			return nil, fmt.Errorf("types: duplicate column name %q", c.Name)
		}
		seen[lower] = struct{}{}
	}
	return &Schema{Columns: cols}, nil
}

// MustSchema is NewSchema that panics on error, for tests and fixtures.
func MustSchema(cols ...Column) *Schema {
	s, err := NewSchema(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Columns) }

// ColumnIndex returns the ordinal of the named column (case-insensitive),
// or -1 if the schema has no such column. A name spelled as the schema
// spells it is found without folding case: NewSchema rejects two columns
// whose names differ only in case, so the exact match is the only match.
func (s *Schema) ColumnIndex(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	for i, c := range s.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// ColumnNames returns the column names in schema order.
func (s *Schema) ColumnNames() []string {
	names := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		names[i] = c.Name
	}
	return names
}

// Validate checks that a row conforms to the schema: same arity and
// matching kinds position by position.
func (s *Schema) Validate(r Row) error {
	if len(r) != len(s.Columns) {
		return fmt.Errorf("types: row has %d values, schema has %d columns", len(r), len(s.Columns))
	}
	for i, v := range r {
		if v.Kind != s.Columns[i].Kind {
			return fmt.Errorf("types: column %q expects %s, row has %s",
				s.Columns[i].Name, s.Columns[i].Kind, v.Kind)
		}
	}
	return nil
}

// String renders the schema as "(name TYPE, ...)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name)
		b.WriteByte(' ')
		b.WriteString(c.Kind.String())
	}
	b.WriteByte(')')
	return b.String()
}
