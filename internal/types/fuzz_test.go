package types

import (
	"bytes"
	"fmt"
	"testing"
)

// FuzzDecodeRow asserts the row codec never panics on arbitrary bytes,
// that anything it accepts re-encodes to the identical bytes, and that
// RowLayout.Locate, through its all-int fast path or its walk, accepts
// exactly what DecodeRow accepts, with the same error, and locates the
// values DecodeRow decodes.
func FuzzDecodeRow(f *testing.F) {
	good, _ := EncodeRow(nil, Row{NewInt(-5), NewString("héllo"), NewInt(1 << 60)})
	f.Add(good)
	ints, _ := EncodeRow(nil, Row{NewInt(1), NewInt(2), NewInt(3)})
	f.Add(ints)
	f.Add([]byte{})
	f.Add([]byte{0, 1, 1})
	f.Add([]byte{0xFF, 0xFF})
	layouts := []*RowLayout{
		NewRowLayout(MustSchema(Column{"a", KindInt}, Column{"b", KindInt}, Column{"c", KindInt})),
		NewRowLayout(MustSchema(Column{"a", KindInt}, Column{"s", KindString}, Column{"c", KindInt})),
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		row, err := DecodeRow(data)
		for _, l := range layouts {
			offs, locErr := l.Locate(data)
			if fmt.Sprint(locErr) != fmt.Sprint(err) {
				t.Fatalf("Locate error %v, DecodeRow error %v", locErr, err)
			}
			if err != nil {
				continue
			}
			if len(offs) != len(row) {
				t.Fatalf("Locate found %d values, DecodeRow %d", len(offs), len(row))
			}
			for i, off := range offs {
				v := NewInt(IntAt(data, off))
				if Kind(data[off]) == KindString {
					v = NewString(string(StringAt(data, off)))
				}
				if v != row[i] {
					t.Fatalf("value %d located as %v, decoded as %v", i, v, row[i])
				}
			}
		}
		if err != nil {
			return
		}
		enc, err := EncodeRow(nil, row)
		if err != nil {
			t.Fatalf("decoded row %v does not re-encode: %v", row, err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("codec not canonical: % x -> %v -> % x", data, row, enc)
		}
	})
}
