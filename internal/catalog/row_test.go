package catalog

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndString(t *testing.T) {
	if IntValue(5).String() != "5" {
		t.Fatal("IntValue string")
	}
	if FloatValue(2.5).String() != "2.5" {
		t.Fatal("FloatValue string")
	}
	if TextValue("hi").String() != "hi" {
		t.Fatal("TextValue string")
	}
	if (Value{}).String() != "<invalid>" {
		t.Fatal("invalid string")
	}
}

// TestValueTextMatchesFmt: String and AppendText format exactly as the
// fmt verbs they replaced ("%d", "%g"). Clients read these cells and the
// partition-filtered aggregates re-parse them, so the text is a contract.
func TestValueTextMatchesFmt(t *testing.T) {
	for _, n := range []int64{0, 1, -1, 42, math.MaxInt64, math.MinInt64, 1e15, -1e15} {
		if got, want := IntValue(n).String(), fmt.Sprintf("%d", n); got != want {
			t.Errorf("IntValue(%d).String() = %q, want %q", n, got, want)
		}
	}
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.375, 2.5, 100, 1e5, 1e6, 123456789, 1e20, 1e21, 1.04e23,
		1e-4, 1e-5, 1.0600000000000001e-07, 1e-9, 1.0 / 3, math.Pi * 1e100,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(), float64(math.MaxInt64), float64(math.MinInt64),
	}
	for _, f := range floats {
		want := fmt.Sprintf("%g", f)
		if got := FloatValue(f).String(); got != want {
			t.Errorf("FloatValue(%v).String() = %q, want %q", f, got, want)
		}
		if got := string(FloatValue(f).AppendText([]byte("x"))); got != "x"+want {
			t.Errorf("FloatValue(%v).AppendText = %q, want %q", f, got, "x"+want)
		}
	}
	if err := quick.Check(func(bits uint64, n int64) bool {
		f := math.Float64frombits(bits)
		return FloatValue(f).String() == fmt.Sprintf("%g", f) && IntValue(n).String() == fmt.Sprintf("%d", n)
	}, nil); err != nil {
		t.Error(err)
	}
	if got := string(TextValue("a<b").AppendText(nil)); got != "a<b" {
		t.Errorf("TextValue AppendText = %q", got)
	}
}

func TestValueEqual(t *testing.T) {
	if !IntValue(3).Equal(IntValue(3)) {
		t.Fatal("equal ints")
	}
	if IntValue(3).Equal(IntValue(4)) {
		t.Fatal("unequal ints")
	}
	if IntValue(3).Equal(FloatValue(3)) {
		t.Fatal("cross-type equal")
	}
	if !TextValue("a").Equal(TextValue("a")) {
		t.Fatal("equal strings")
	}
	if !FloatValue(1.5).Equal(FloatValue(1.5)) {
		t.Fatal("equal floats")
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{IntValue(1), IntValue(2), -1},
		{IntValue(2), IntValue(2), 0},
		{IntValue(3), IntValue(2), 1},
		{FloatValue(1.5), FloatValue(2.5), -1},
		{FloatValue(2.5), FloatValue(2.5), 0},
		{TextValue("a"), TextValue("b"), -1},
		{TextValue("b"), TextValue("b"), 0},
		{TextValue("c"), TextValue("b"), 1},
	}
	for _, c := range cases {
		got, err := c.a.Compare(c.b)
		if err != nil || got != c.want {
			t.Errorf("Compare(%v, %v) = %d, %v", c.a, c.b, got, err)
		}
	}
	if _, err := IntValue(1).Compare(TextValue("x")); err == nil {
		t.Fatal("cross-type compare accepted")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := testSchema()
	row := Row{IntValue(42), TextValue("Spider-Man"), FloatValue(403706375)}
	data, err := EncodeRow(s, row)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRow(s, data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range row {
		if !got[i].Equal(row[i]) {
			t.Fatalf("column %d: %v != %v", i, got[i], row[i])
		}
	}
}

func TestEncodeRowValidation(t *testing.T) {
	s := testSchema()
	if _, err := EncodeRow(s, Row{IntValue(1)}); err == nil {
		t.Fatal("short row accepted")
	}
	if _, err := EncodeRow(s, Row{TextValue("x"), TextValue("y"), FloatValue(1)}); err == nil {
		t.Fatal("type mismatch accepted")
	}
}

func TestDecodeRowErrors(t *testing.T) {
	s := testSchema()
	row := Row{IntValue(1), TextValue("abc"), FloatValue(2)}
	data, _ := EncodeRow(s, row)
	// Truncations at every boundary must error, not panic.
	for cut := 0; cut < len(data); cut++ {
		if _, err := DecodeRow(s, data[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Trailing garbage.
	if _, err := DecodeRow(s, append(append([]byte{}, data...), 0xFF)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestEncodeNegativeAndExtremes(t *testing.T) {
	s := Schema{Table: "t", Columns: []Column{{Name: "id", Type: Int}, {Name: "f", Type: Float}}, Key: 0}
	row := Row{IntValue(-12345), FloatValue(math.Inf(-1))}
	data, err := EncodeRow(s, row)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRow(s, data)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Int != -12345 || !math.IsInf(got[1].Float, -1) {
		t.Fatalf("extremes lost: %v", got)
	}
}

func TestRowCodecProperty(t *testing.T) {
	s := Schema{
		Table: "p",
		Columns: []Column{
			{Name: "id", Type: Int},
			{Name: "name", Type: Text},
			{Name: "score", Type: Float},
			{Name: "note", Type: Text},
		},
		Key:    0,
		Layout: LayoutVerbatim,
	}
	f := func(id int64, name string, score float64, note string) bool {
		row := Row{IntValue(id), TextValue(name), FloatValue(score), TextValue(note)}
		data, err := EncodeRow(s, row)
		if err != nil {
			return false
		}
		got, err := DecodeRow(s, data)
		if err != nil {
			return false
		}
		if got[0].Int != id || got[1].Str != name || got[3].Str != note {
			return false
		}
		// NaN compares unequal to itself; compare bit patterns.
		return math.Float64bits(got[2].Float) == math.Float64bits(score)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyStringsAndUnicode(t *testing.T) {
	s := Schema{Table: "t", Columns: []Column{{Name: "id", Type: Int}, {Name: "s", Type: Text}}, Key: 0}
	for _, str := range []string{"", "héllo wörld", "日本語", string([]byte{0, 1, 2})} {
		row := Row{IntValue(1), TextValue(str)}
		data, err := EncodeRow(s, row)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeRow(s, data)
		if err != nil || got[1].Str != str {
			t.Fatalf("string %q: got %q, %v", str, got[1].Str, err)
		}
	}
}

// TestFieldsLocatesEachColumn: the bytes Fields finds for a column are
// the value DecodeRow reads there — a TEXT's text, a number's eight
// little-endian bytes — its verbatim bit is Verbatim's, and a record cut
// short anywhere is an error, not a panic.
func TestFieldsLocatesEachColumn(t *testing.T) {
	s := Schema{
		Table: "p",
		Columns: []Column{
			{Name: "name", Type: Text},
			{Name: "id", Type: Int},
			{Name: "score", Type: Float},
			{Name: "note", Type: Text},
		},
		Key:    1,
		Layout: LayoutVerbatim,
	}
	f := func(id int64, name string, score float64, note string) bool {
		data, err := EncodeRow(s, Row{TextValue(name), IntValue(id), FloatValue(score), TextValue(note)})
		if err != nil {
			return false
		}
		fields, verbatim, err := Fields(s, data, nil, nil)
		if err != nil || len(fields) != 4 || len(verbatim) != 4 {
			return false
		}
		return string(fields[0]) == name && string(fields[3]) == note &&
			binary.LittleEndian.Uint64(fields[1]) == uint64(id) &&
			binary.LittleEndian.Uint64(fields[2]) == math.Float64bits(score) &&
			verbatim[0] == Verbatim(name) && !verbatim[1] && !verbatim[2] &&
			verbatim[3] == Verbatim(note)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	data, _ := EncodeRow(s, Row{TextValue("abc"), IntValue(1), FloatValue(2), TextValue("de")})
	for cut := 0; cut < len(data); cut++ {
		if _, _, err := Fields(s, data[:cut], nil, nil); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// TestVerbatimIsJSONUnchanged: a text is Verbatim exactly when
// encoding/json's HTML-safe encoder writes it between quotes as it is.
func TestVerbatimIsJSONUnchanged(t *testing.T) {
	unchanged := func(s string) bool {
		b, err := json.Marshal(s)
		return err == nil && string(b) == `"`+s+`"`
	}
	cases := []string{
		"", "one", "v12 plain text, with: punctuation!", `<b>&"q"\</b>`, "<", ">", "&", `"`, `\`, "/",
		"\x00", "\x1f", "\x7f", "\t", "line\u2028sep", "para\u2029", "\xed\xa0\x80", "\xff\xfe", "\xc3",
		"é 日本 \U0001F600", "\ufffd", "\U0010FFFF",
	}
	for _, s := range cases {
		if Verbatim(s) != unchanged(s) {
			t.Errorf("Verbatim(%q) = %v, encoding/json unchanged: %v", s, Verbatim(s), unchanged(s))
		}
	}
	for b := 0; b < 256; b++ {
		if s := string([]byte{byte(b)}); Verbatim(s) != unchanged(s) || PlainByte(byte(b)) != unchanged(s) {
			t.Errorf("byte %#x: Verbatim %v, PlainByte %v, encoding/json unchanged %v",
				b, Verbatim(s), PlainByte(byte(b)), unchanged(s))
		}
	}
	if err := quick.Check(func(s string) bool { return Verbatim(s) == unchanged(s) }, nil); err != nil {
		t.Fatal(err)
	}
}

// TestTextLengthByLayout pins the bytes of a TEXT cell's header in the
// stamped layout: length<<1 | verbatim, two bytes from a 64-byte text on.
func TestTextLengthByLayout(t *testing.T) {
	s := Schema{Table: "t", Columns: []Column{{Name: "id", Type: Int}, {Name: "s", Type: Text}}, Layout: LayoutVerbatim}
	for _, c := range []struct {
		text string
		head []byte
	}{
		{"abc", []byte{7}},
		{"a<c", []byte{6}},
		{strings.Repeat("x", 63), []byte{127}},
		{strings.Repeat("x", 64), []byte{0x81, 1}},
		{strings.Repeat("&", 128), []byte{0x80, 2}},
	} {
		data, err := EncodeRow(s, Row{IntValue(1), TextValue(c.text)})
		if err != nil {
			t.Fatal(err)
		}
		want := append(append(make([]byte, 8, 8+len(c.head)+len(c.text)), c.head...), c.text...)
		want[0] = 1
		if !bytes.Equal(data, want) {
			t.Errorf("%q: record %x, want %x", c.text, data[8:8+len(c.head)], c.head)
		}
		if got, err := DecodeRow(s, data); err != nil || got[1].Str != c.text {
			t.Errorf("%q: decoded %v, %v", c.text, got, err)
		}
	}
}
