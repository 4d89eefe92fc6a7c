package keyenc

import (
	"bytes"
	"fmt"
	"testing"

	"dyndesign/internal/types"
)

// FuzzDecode asserts the key codec never panics on arbitrary bytes,
// round-trips what it accepts, and that ValueSpan and IntAt read each
// part as Decode does.
func FuzzDecode(f *testing.F) {
	f.Add(MustEncode(types.NewInt(42), types.NewString("x\x00y")))
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add([]byte{0x02, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		vals, decErr := Decode(data)
		// Walking the key part by part fails exactly where Decode does,
		// and each part's kind and int value are Decode's.
		var walkErr error
		for off, i := 0, 0; off < len(data); i++ {
			kind, n, err := ValueSpan(data[off:])
			if err != nil {
				walkErr = err
				break
			}
			if decErr == nil {
				v, ok := IntAt(data, off)
				if vals[i].Kind != kind || (kind == types.KindInt && (!ok || vals[i].Int != v)) {
					t.Fatalf("part %d of % x: ValueSpan kind %v, IntAt %d %v; Decode has %v", i, data, kind, v, ok, vals[i])
				}
			}
			off += n
		}
		if fmt.Sprint(walkErr) != fmt.Sprint(decErr) {
			t.Fatalf("walk error %v, Decode error %v", walkErr, decErr)
		}
		if decErr != nil {
			return
		}
		enc, err := Encode(vals...)
		if err != nil {
			t.Fatalf("decoded key %v does not re-encode: %v", vals, err)
		}
		if !bytes.Equal(enc, data) {
			t.Fatalf("codec not canonical: % x -> %v -> % x", data, vals, enc)
		}
	})
}
