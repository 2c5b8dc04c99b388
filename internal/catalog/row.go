package catalog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// Value is one typed cell of a row.
type Value struct {
	Type  Type
	Int   int64
	Float float64
	Str   string
}

// IntValue, FloatValue and TextValue construct Values.
func IntValue(v int64) Value     { return Value{Type: Int, Int: v} }
func FloatValue(v float64) Value { return Value{Type: Float, Float: v} }
func TextValue(v string) Value   { return Value{Type: Text, Str: v} }

// AppendText appends the value's text form — the cell a client reads —
// to dst: INT in decimal, FLOAT in the shortest %g form that round-trips,
// TEXT as is.
func (v Value) AppendText(dst []byte) []byte {
	switch v.Type {
	case Int:
		return strconv.AppendInt(dst, v.Int, 10)
	case Float:
		return strconv.AppendFloat(dst, v.Float, 'g', -1, 64)
	case Text:
		return append(dst, v.Str...)
	default:
		return append(dst, "<invalid>"...)
	}
}

// String implements fmt.Stringer with AppendText's text.
func (v Value) String() string {
	if v.Type == Text {
		return v.Str
	}
	var buf [32]byte // the longest FLOAT, -1.7976931348623157e+308, is 24
	return string(v.AppendText(buf[:0]))
}

// Equal reports deep equality of two values (types must match).
func (v Value) Equal(o Value) bool {
	if v.Type != o.Type {
		return false
	}
	switch v.Type {
	case Int:
		return v.Int == o.Int
	case Float:
		return v.Float == o.Float
	case Text:
		return v.Str == o.Str
	default:
		return false
	}
}

// Compare orders two values of the same type: -1, 0, or +1. It returns an
// error on type mismatch.
func (v Value) Compare(o Value) (int, error) {
	if v.Type != o.Type {
		return 0, fmt.Errorf("catalog: comparing %v with %v", v.Type, o.Type)
	}
	switch v.Type {
	case Int:
		switch {
		case v.Int < o.Int:
			return -1, nil
		case v.Int > o.Int:
			return 1, nil
		}
		return 0, nil
	case Float:
		switch {
		case v.Float < o.Float:
			return -1, nil
		case v.Float > o.Float:
			return 1, nil
		}
		return 0, nil
	case Text:
		switch {
		case v.Str < o.Str:
			return -1, nil
		case v.Str > o.Str:
			return 1, nil
		}
		return 0, nil
	default:
		return 0, errors.New("catalog: comparing invalid values")
	}
}

// Row is an ordered list of values matching a schema's columns.
type Row []Value

// PlainByte reports whether b is an ASCII byte a JSON string holds as
// itself in encoding/json's HTML-safe spelling, the /query reply's: not a
// control byte, '"', '\\', '<', '>' or '&'. No byte from 0x80 up is
// plain alone; Verbatim judges those as runes.
func PlainByte(b byte) bool {
	return b >= ' ' && b < utf8.RuneSelf && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
}

var plainByte = func() (t [256]bool) {
	for b := range t {
		t[b] = PlainByte(byte(b))
	}
	return t
}()

// Verbatim reports whether encoding/json writes text between its quotes
// unchanged: every ASCII byte plain (PlainByte), the rest valid UTF-8
// with no U+2028 or U+2029. It is the one definition of a TEXT cell's
// verbatim bit. It tests eight bytes a step and reads runes only from
// the first eight-byte chunk that holds a byte that is not plain.
func Verbatim(text string) bool {
	i := 0
	for ; i+8 <= len(text); i += 8 {
		if notPlain8(word(text[i:i+8]))&highs != 0 {
			break
		}
	}
	return verbatimRunes(text[i:])
}

// Byte-wise constants for notPlain8: every byte of ones is 0x01, of highs 0x80.
const (
	ones  = 0x0101010101010101
	highs = 0x8080808080808080
)

// word is the eight bytes of s, little-endian: one load.
func word(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// notPlain8 sets the high bit of a byte of its result when a byte of w is
// not plain, and of none when all eight are. A byte is not plain when
// its high bit is set, when it is below ' ', or when it is one of the
// five escaped ASCII bytes; each test is exact for the word as a whole
// (a borrow can only flag a byte above one that matches). The escaped
// bytes pair up: '"' (0x22) and '&' (0x26) differ only in bit 2, '<'
// (0x3C) and '>' (0x3E) only in bit 1, so setting that bit before the
// compare catches both of a pair.
func notPlain8(w uint64) uint64 {
	return w | (w - ones*' ') | zeroByte(w^(ones*'\\')) |
		zeroByte((w|ones*0x04)^(ones*'&')) | zeroByte((w|ones*0x02)^(ones*'>'))
}

// zeroByte sets the high bit of a byte of its result when a byte of x is
// zero, and of none when no byte is.
func zeroByte(x uint64) uint64 { return (x - ones) &^ x }

// verbatimRunes is Verbatim one byte, or one rune, at a time.
func verbatimRunes(text string) bool {
	for i := 0; i < len(text); {
		if b := text[i]; b < utf8.RuneSelf {
			if !plainByte[b] {
				return false
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(text[i:])
		if r == utf8.RuneError && size == 1 || r == '\u2028' || r == '\u2029' {
			return false
		}
		i += size
	}
	return true
}

// EncodeRow serializes a row for the given schema. Layout: for each
// column, Int → 8-byte little-endian two's complement; Float → 8-byte
// IEEE-754 bits; Text → a uvarint, then the bytes. The uvarint is
// length<<1 | v (LayoutVerbatim), where v is 1 when the text is Verbatim:
// a reply copies such a cell between quotes without looking at it. The
// record is allocated once, at its size.
func EncodeRow(s Schema, r Row) ([]byte, error) {
	if len(r) != len(s.Columns) {
		return nil, fmt.Errorf("catalog: row has %d values, schema %q has %d columns",
			len(r), s.Table, len(s.Columns))
	}
	size := 0
	for i, col := range s.Columns {
		if r[i].Type != col.Type {
			return nil, fmt.Errorf("catalog: column %q expects %v, got %v",
				col.Name, col.Type, r[i].Type)
		}
		if col.Type == Text {
			size += binary.MaxVarintLen64 + len(r[i].Str)
		} else {
			size += 8
		}
	}
	buf := make([]byte, 0, size)
	for i, col := range s.Columns {
		switch col.Type {
		case Int:
			buf = binary.LittleEndian.AppendUint64(buf, uint64(r[i].Int))
		case Float:
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r[i].Float))
		case Text:
			l := uint64(len(r[i].Str)) << 1
			if Verbatim(r[i].Str) {
				l |= 1
			}
			buf = binary.AppendUvarint(buf, l)
			buf = append(buf, r[i].Str...)
		}
	}
	return buf, nil
}

// textHeader reads the uvarint that opens a TEXT cell at data[off:]: the
// cell's length, its verbatim bit and the uvarint's width, 0 when data
// holds no whole cell there.
func textHeader(data []byte, off int) (l int, verbatim bool, w int) {
	u, w := binary.Uvarint(data[off:])
	verbatim = u&1 == 1
	u >>= 1
	if w <= 0 || u > uint64(len(data)-off-w) {
		return 0, false, 0
	}
	return int(u), verbatim, w
}

// DecodeRow deserializes a row encoded by EncodeRow.
func DecodeRow(s Schema, data []byte) (Row, error) {
	return DecodeRowInto(s, data, nil, nil)
}

// DecodeRowInto is DecodeRow appending into row's storage (pass row[:0]
// to reuse a scratch slice across records). need, when non-nil, marks
// the columns whose values the caller will actually read: TEXT columns
// outside the mask are length-skipped and left as empty strings instead
// of being copied out of the page, which keeps hot point lookups and
// filtered scans from allocating a string per row for columns nobody
// projects or filters on. Fixed-width columns decode regardless (the
// skip would cost more than the read).
func DecodeRowInto(s Schema, data []byte, row Row, need []bool) (Row, error) {
	if row == nil {
		row = make(Row, 0, len(s.Columns))
	}
	off := 0
	for i, col := range s.Columns {
		switch col.Type {
		case Int:
			if off+8 > len(data) {
				return nil, fmt.Errorf("catalog: truncated INT column %q", col.Name)
			}
			row = append(row, IntValue(int64(binary.LittleEndian.Uint64(data[off:off+8]))))
			off += 8
		case Float:
			if off+8 > len(data) {
				return nil, fmt.Errorf("catalog: truncated FLOAT column %q", col.Name)
			}
			row = append(row, FloatValue(math.Float64frombits(binary.LittleEndian.Uint64(data[off:off+8]))))
			off += 8
		case Text:
			l, _, n := textHeader(data, off)
			if n == 0 {
				return nil, fmt.Errorf("catalog: bad TEXT column %q", col.Name)
			}
			off += n
			if need == nil || need[i] {
				row = append(row, TextValue(string(data[off:off+l])))
			} else {
				row = append(row, Value{Type: Text})
			}
			off += l
		default:
			return nil, fmt.Errorf("catalog: invalid type in schema column %q", col.Name)
		}
	}
	if off != len(data) {
		return nil, fmt.Errorf("catalog: %d trailing bytes after row", len(data)-off)
	}
	return row, nil
}

// Fields appends to dst each column's bytes within the record data, in
// schema order and aliasing data: the eight bytes of an INT or FLOAT, the
// text of a TEXT without its length. To verbatim it appends whether each
// column is a TEXT cell whose verbatim bit is set (see EncodeRow); an
// INT or FLOAT field is raw bytes, never verbatim. It is how a reader
// takes a TEXT cell from the page in place where DecodeRowInto would copy
// it out. The record must be one DecodeRowInto accepts.
func Fields(s Schema, data []byte, dst [][]byte, verbatim []bool) ([][]byte, []bool, error) {
	off := 0
	for _, col := range s.Columns {
		n, v := 8, false
		if col.Type == Text {
			var w int
			if n, v, w = textHeader(data, off); w == 0 {
				return nil, nil, fmt.Errorf("catalog: bad TEXT column %q", col.Name)
			}
			off += w
		} else if off+n > len(data) {
			return nil, nil, fmt.Errorf("catalog: truncated column %q", col.Name)
		}
		dst = append(dst, data[off:off+n:off+n])
		verbatim = append(verbatim, v)
		off += n
	}
	return dst, verbatim, nil
}
