package types

import (
	"encoding/binary"
	"fmt"
)

// The row codec serializes rows into the byte payloads stored in heap
// pages. The format is self-describing (each value carries a kind tag) so
// a row can be decoded without the schema; the engine still validates the
// decoded row against the catalog schema.
//
// Layout:
//
//	uint16  column count
//	repeat: uint8 kind tag, then
//	        int:    8-byte big-endian two's complement
//	        string: uint32 length + bytes

// intValueSize is the encoded size of an int value, tag included.
const intValueSize = 1 + 8

// EncodeRow appends the binary encoding of the row to dst and returns the
// extended slice.
func EncodeRow(dst []byte, r Row) ([]byte, error) {
	if len(r) > 0xFFFF {
		return nil, fmt.Errorf("types: row too wide (%d values)", len(r))
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(r)))
	for i, v := range r {
		switch v.Kind {
		case KindInt:
			dst = append(dst, byte(KindInt))
			dst = binary.BigEndian.AppendUint64(dst, uint64(v.Int))
		case KindString:
			if len(v.Str) > 0x7FFFFFFF {
				return nil, fmt.Errorf("types: string value too long (%d bytes)", len(v.Str))
			}
			dst = append(dst, byte(KindString))
			dst = binary.BigEndian.AppendUint32(dst, uint32(len(v.Str)))
			dst = append(dst, v.Str...)
		default:
			return nil, fmt.Errorf("types: cannot encode invalid value at position %d", i)
		}
	}
	return dst, nil
}

// DecodeRow parses a row from buf. The buffer must contain exactly one
// encoded row; trailing bytes are an error so that storage corruption is
// detected rather than silently ignored.
func DecodeRow(buf []byte) (Row, error) {
	return DecodeRowInto(nil, buf)
}

// DecodeRowInto is DecodeRow reusing the caller's row storage (appending
// from dst[:0]) so scan loops allocate nothing per row. String values
// still copy their payloads; callers that retain the row across calls
// must Clone it.
func DecodeRowInto(dst Row, buf []byte) (Row, error) {
	n, err := rowCount(buf)
	if err != nil {
		return nil, err
	}
	r := dst[:0]
	pos := 2
	for i := 0; i < n; i++ {
		kind, size, err := valueSize(buf[pos:], i)
		if err != nil {
			return nil, err
		}
		if kind == KindInt {
			r = append(r, NewInt(IntAt(buf, pos)))
		} else {
			r = append(r, NewString(string(StringAt(buf, pos))))
		}
		pos += size
	}
	if err := trailing(buf, pos); err != nil {
		return nil, err
	}
	return r, nil
}

// rowCount reads the column count of an encoded row.
func rowCount(buf []byte) (int, error) {
	if len(buf) < 2 {
		return 0, fmt.Errorf("types: row buffer too short (%d bytes)", len(buf))
	}
	return int(binary.BigEndian.Uint16(buf)), nil
}

// valueSize checks the encoded value at the front of buf, value i of its
// row, and returns its kind and its encoded size, tag included.
func valueSize(buf []byte, i int) (Kind, int, error) {
	if len(buf) < 1 {
		return KindInvalid, 0, fmt.Errorf("types: truncated row at value %d", i)
	}
	switch kind := Kind(buf[0]); kind {
	case KindInt:
		if len(buf) < intValueSize {
			return KindInvalid, 0, fmt.Errorf("types: truncated int at value %d", i)
		}
		return KindInt, intValueSize, nil
	case KindString:
		if len(buf) < 5 {
			return KindInvalid, 0, fmt.Errorf("types: truncated string length at value %d", i)
		}
		sz := int(binary.BigEndian.Uint32(buf[1:]))
		if len(buf)-5 < sz {
			return KindInvalid, 0, fmt.Errorf("types: truncated string payload at value %d", i)
		}
		return KindString, 5 + sz, nil
	default:
		return KindInvalid, 0, fmt.Errorf("types: unknown kind tag %d at value %d", kind, i)
	}
}

// trailing rejects bytes left after an encoded row ending at end.
func trailing(buf []byte, end int) error {
	if end != len(buf) {
		return fmt.Errorf("types: %d trailing bytes after row", len(buf)-end)
	}
	return nil
}

// IntAt returns the int value whose kind tag sits at buf[off] of an
// encoded row that RowLayout.Locate or DecodeRow has accepted.
func IntAt(buf []byte, off int) int64 {
	return int64(binary.BigEndian.Uint64(buf[off+1:]))
}

// StringAt returns the bytes of the string value whose kind tag sits at
// buf[off] of an accepted encoded row. The slice aliases buf.
func StringAt(buf []byte, off int) []byte {
	sz := int(binary.BigEndian.Uint32(buf[off+1:]))
	return buf[off+5 : off+5+sz]
}

// RowLayout locates the values of encoded rows in place, so a scan can
// test predicates on the bytes and decode only the rows it keeps. A
// RowLayout reuses its offset storage: it serves one scan at a time.
type RowLayout struct {
	// fixedLen is the encoded size of a row of `fixed` int values, and
	// fixed the offsets of their tags, when every column of the schema is
	// an int; fixedLen is 0 otherwise.
	fixedLen int
	fixed    []int
	offs     []int // scratch of the general walk
}

// NewRowLayout returns a layout for rows of the schema.
func NewRowLayout(schema *Schema) *RowLayout {
	l := &RowLayout{fixedLen: 2}
	for _, c := range schema.Columns {
		if c.Kind != KindInt {
			l.fixedLen, l.fixed = 0, nil
			break
		}
		l.fixed = append(l.fixed, l.fixedLen)
		l.fixedLen += intValueSize
	}
	return l
}

// Locate returns the offset of each value's kind tag in buf. It accepts
// exactly the buffers DecodeRow accepts, failing with DecodeRow's error,
// but decodes nothing. A row of an all-int schema is checked by its
// length, column count and tag bytes alone; any other buffer is walked
// value by value. The returned slice is valid until the next call.
func (l *RowLayout) Locate(buf []byte) ([]int, error) {
	if l.fixedLen != 0 && len(buf) == l.fixedLen && l.fixedRow(buf) {
		return l.fixed, nil
	}
	return l.walk(buf)
}

// fixedRow checks a buffer of the fixed length: its column count and its
// int tags.
func (l *RowLayout) fixedRow(buf []byte) bool {
	if int(binary.BigEndian.Uint16(buf)) != len(l.fixed) {
		return false
	}
	for _, off := range l.fixed {
		if Kind(buf[off]) != KindInt {
			return false
		}
	}
	return true
}

// walk locates the values of buf one by one, as DecodeRowInto does.
func (l *RowLayout) walk(buf []byte) ([]int, error) {
	n, err := rowCount(buf)
	if err != nil {
		return nil, err
	}
	offs := l.offs[:0]
	pos := 2
	for i := 0; i < n; i++ {
		_, size, err := valueSize(buf[pos:], i)
		if err != nil {
			return nil, err
		}
		offs = append(offs, pos)
		pos += size
	}
	l.offs = offs
	if err := trailing(buf, pos); err != nil {
		return nil, err
	}
	return offs, nil
}
