// Package keyenc provides an order-preserving binary encoding for
// composite index keys: for any two key tuples a and b,
// bytes.Compare(Encode(a), Encode(b)) equals the tuple comparison of a
// and b. The B+-tree stores and compares only these encoded byte keys,
// which keeps the tree oblivious to the type system.
//
// Encoding per value:
//
//	int64:  tag 0x01, then the value biased by flipping the sign bit and
//	        written big-endian — this makes unsigned byte order match
//	        signed integer order.
//	string: tag 0x02, then the bytes with 0x00 escaped as 0x00 0xFF,
//	        terminated by 0x00 0x00 — the terminator sorts below any
//	        continuation, so prefixes sort first, matching string order.
//
// Tags also give cross-kind determinism (ints sort before strings), though
// the engine never mixes kinds within one key position.
package keyenc

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"dyndesign/internal/types"
)

const (
	tagInt    = 0x01
	tagString = 0x02
)

// AppendValue appends the order-preserving encoding of a single value.
func AppendValue(dst []byte, v types.Value) ([]byte, error) {
	switch v.Kind {
	case types.KindInt:
		return AppendInt(dst, v.Int), nil
	case types.KindString:
		return appendString(dst, v.Str), nil
	default:
		return nil, fmt.Errorf("keyenc: cannot encode invalid value")
	}
}

// AppendRowValue appends the encoding of the value whose kind tag sits
// at row[off] of an encoded heap row that types.RowLayout.Locate has
// accepted, read from the row's bytes: an INT is the tag and the row's
// word with its sign bit flipped, a STRING the tag and its bytes escaped.
func AppendRowValue(dst, row []byte, off int) []byte {
	if types.Kind(row[off]) == types.KindInt {
		return AppendInt(dst, types.IntAt(row, off))
	}
	return appendString(dst, types.StringAt(row, off))
}

// AppendInt appends the encoding of the INT value v.
func AppendInt(dst []byte, v int64) []byte {
	dst = append(dst, tagInt)
	return binary.BigEndian.AppendUint64(dst, uint64(v)^(1<<63))
}

func appendString[S string | []byte](dst []byte, s S) []byte {
	dst = append(dst, tagString)
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == 0x00 {
			dst = append(dst, 0x00, 0xFF)
		} else {
			dst = append(dst, c)
		}
	}
	return append(dst, 0x00, 0x00)
}

// Encode encodes a tuple of values as one composite key.
func Encode(vals ...types.Value) ([]byte, error) {
	dst := make([]byte, 0, 16*len(vals))
	var err error
	for _, v := range vals {
		dst, err = AppendValue(dst, v)
		if err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// MustEncode is Encode that panics on error, for fixtures and tests.
func MustEncode(vals ...types.Value) []byte {
	k, err := Encode(vals...)
	if err != nil {
		panic(err)
	}
	return k
}

// PrefixSuccessor returns the smallest byte string that is greater than
// every string having the given prefix: the prefix with its last
// non-0xFF byte incremented and the tail truncated. It returns nil when
// no such string exists (the prefix is empty or all 0xFF), which callers
// treat as an unbounded upper limit. It is the primitive behind
// exclusive range bounds and prefix scans on encoded keys.
func PrefixSuccessor(prefix []byte) []byte {
	for i := len(prefix) - 1; i >= 0; i-- {
		if prefix[i] != 0xFF {
			out := make([]byte, i+1)
			copy(out, prefix[:i+1])
			out[i]++
			return out
		}
	}
	return nil
}

// IntLen is the encoded length of an int value, tag included.
const IntLen = 9

// ValueSpan returns the kind and the length of the encoded value at the
// front of key, tag and string terminator included, failing where
// DecodeInto would on that value. Since the encoding preserves order
// value by value, a predicate on one key column is a bytes.Compare of
// that column's part of the key against the encoded literal.
func ValueSpan(key []byte) (types.Kind, int, error) {
	if len(key) == 0 {
		return types.KindInvalid, 0, fmt.Errorf("keyenc: empty key")
	}
	switch key[0] {
	case tagInt:
		if len(key) < IntLen {
			return types.KindInvalid, 0, fmt.Errorf("keyenc: truncated int key")
		}
		return types.KindInt, IntLen, nil
	case tagString:
		for i := 1; ; i += 2 {
			j := bytes.IndexByte(key[i:], 0x00)
			if j < 0 {
				return types.KindInvalid, 0, fmt.Errorf("keyenc: unterminated string key")
			}
			i += j
			if i+1 >= len(key) {
				return types.KindInvalid, 0, fmt.Errorf("keyenc: truncated string escape")
			}
			switch key[i+1] {
			case 0x00: // terminator
				return types.KindString, i + 2, nil
			case 0xFF: // escaped literal 0x00
			default:
				return types.KindInvalid, 0, fmt.Errorf("keyenc: invalid string escape 0x00 0x%02X", key[i+1])
			}
		}
	default:
		return types.KindInvalid, 0, fmt.Errorf("keyenc: unknown tag 0x%02X", key[0])
	}
}

// IntAt decodes the int value encoded at key[off:], reporting false when
// no complete int value starts there.
func IntAt(key []byte, off int) (int64, bool) {
	if off < 0 || len(key)-IntLen < off || key[off] != tagInt {
		return 0, false
	}
	return int64(binary.BigEndian.Uint64(key[off+1:]) ^ (1 << 63)), true
}

// Decode parses a composite key back into its values. It is the inverse
// of Encode and is used by index-only scans to reconstruct column values
// without visiting the heap.
func Decode(key []byte) ([]types.Value, error) {
	return DecodeInto(nil, key)
}

// DecodeInto is Decode reusing the caller's slice (appending from
// buf[:0]) so per-entry scans allocate nothing. The returned slice
// aliases buf's storage; callers that retain values across calls must
// copy them.
func DecodeInto(buf []types.Value, key []byte) ([]types.Value, error) {
	vals := buf[:0]
	for len(key) > 0 {
		switch key[0] {
		case tagInt:
			if len(key) < 9 {
				return nil, fmt.Errorf("keyenc: truncated int key")
			}
			u := binary.BigEndian.Uint64(key[1:9])
			vals = append(vals, types.NewInt(int64(u^(1<<63))))
			key = key[9:]
		case tagString:
			key = key[1:]
			var buf []byte
			done := false
			for !done {
				if len(key) < 1 {
					return nil, fmt.Errorf("keyenc: unterminated string key")
				}
				c := key[0]
				if c != 0x00 {
					buf = append(buf, c)
					key = key[1:]
					continue
				}
				if len(key) < 2 {
					return nil, fmt.Errorf("keyenc: truncated string escape")
				}
				switch key[1] {
				case 0xFF: // escaped literal 0x00
					buf = append(buf, 0x00)
					key = key[2:]
				case 0x00: // terminator
					key = key[2:]
					done = true
				default:
					return nil, fmt.Errorf("keyenc: invalid string escape 0x00 0x%02X", key[1])
				}
			}
			vals = append(vals, types.NewString(string(buf)))
		default:
			return nil, fmt.Errorf("keyenc: unknown tag 0x%02X", key[0])
		}
	}
	return vals, nil
}
