package sqlmini

import (
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
	"unsafe"
)

// TestLexerDecodesUTF8 reads identifiers and white space as UTF-8 runes,
// not as one rune per byte: a non-ASCII letter belongs to its
// identifier, a non-ASCII space separates, and a byte that is not UTF-8
// is an invalid character. HasPrefixKeyword follows the same rules.
func TestLexerDecodesUTF8(t *testing.T) {
	cases := []struct {
		src      string
		table    string // the statement's table, when it parses
		err      string // the error, when it does not
		isSelect bool   // what HasPrefixKeyword(src, "SELECT") says
	}{
		{src: "CREATE TABLE dà (id INT PRIMARY KEY)", table: "dà"},
		{src: "SELECT * FROM té", table: "té", isSelect: true},
		{src: "SELECT * FROM t\u0085", table: "t", isSelect: true},
		{src: "SELECT * FROM t\u00a0WHERE id = 1", table: "t", isSelect: true},
		{src: "\u00a0\u2003SELECT\u3000*\u0085FROM t", table: "t", isSelect: true},
		{src: "SELECT * FROM Δδ_9 WHERE id = 1", table: "Δδ_9", isSelect: true},
		{src: "SELECT * FROM t WHERE v = '\xff\xa0\x85'", table: "t", isSelect: true},
		{src: "SELECT * FROM t\x85", err: `sqlmini: invalid character "\x85" at position 15`, isSelect: true},
		{src: "SELECT * FROM \xa0t", err: `sqlmini: invalid character "\xa0" at position 14`, isSelect: true},
		{src: "\xa0SELECT * FROM t", err: `sqlmini: invalid character "\xa0" at position 0`},
		{src: "SELECT * FROM t€", err: `sqlmini: invalid character '€' at position 15`, isSelect: true},
		{src: "SELECT * FROM t©", err: `sqlmini: invalid character '©' at position 15`, isSelect: true},
		{src: "SELECTé * FROM t", err: `sqlmini: expected statement, got "SELECTé"`},
		{src: "SELECT * FROM t WHERE id = #", err: `sqlmini: invalid character '#' at position 27`, isSelect: true},
	}
	for _, c := range cases {
		stmt, err := Parse(c.src)
		switch {
		case c.err != "":
			if err == nil || err.Error() != c.err {
				t.Errorf("Parse(%q) error = %v, want %s", c.src, err, c.err)
			}
		case err != nil:
			t.Errorf("Parse(%q): %v", c.src, err)
		default:
			var table string
			switch s := stmt.(type) {
			case *CreateTable:
				table = s.Table
			case *Select:
				table = s.Table
			}
			if table != c.table {
				t.Errorf("Parse(%q) table = %q, want %q", c.src, table, c.table)
			}
		}
		if got := HasPrefixKeyword(c.src, "SELECT"); got != c.isSelect {
			t.Errorf("HasPrefixKeyword(%q, SELECT) = %v, want %v", c.src, got, c.isSelect)
		}
	}
}

// TestLexString pins the literal reader's text, position and errors:
// doubled quotes anywhere in a literal, empty literals, and literals
// left open.
func TestLexString(t *testing.T) {
	cases := []struct {
		src  string
		text []string // the string tokens, in order
		err  string
	}{
		{src: "''", text: []string{""}},
		{src: "''''", text: []string{"'"}},
		{src: "'''abc'", text: []string{"'abc"}},
		{src: "'ab''c'", text: []string{"ab'c"}},
		{src: "'abc'''", text: []string{"abc'"}},
		{src: "'a''''b' 'c'", text: []string{"a''b", "c"}},
		{src: "'x''y''z' ,''", text: []string{"x'y'z", ""}},
		{src: "'", err: "sqlmini: unterminated string at position 0"},
		{src: "x 'abc", err: "sqlmini: unterminated string at position 2"},
		{src: "x 'abc''", err: "sqlmini: unterminated string at position 2"},
		{src: "'ok' '''", err: "sqlmini: unterminated string at position 5"},
	}
	for _, c := range cases {
		toks, err := lex(c.src)
		if c.err != "" {
			if err == nil || err.Error() != c.err {
				t.Errorf("lex(%q) error = %v, want %s", c.src, err, c.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("lex(%q): %v", c.src, err)
			continue
		}
		var got []string
		for _, tok := range toks {
			if tok.kind != tokString {
				continue
			}
			got = append(got, tok.text)
			if text, _, ok := refLexString(c.src, tok.pos); !ok || text != tok.text {
				t.Errorf("lex(%q): string at %d is %q, the reference reads %q (ok=%v)", c.src, tok.pos, tok.text, text, ok)
			}
		}
		if !slices.Equal(got, c.text) {
			t.Errorf("lex(%q) strings = %q, want %q", c.src, got, c.text)
		}
	}
}

// TestStringLiteralsDoNotAliasTheStatement holds the lexer's ownership
// rule: a string literal's text is a copy, so a value kept from it (a
// secondary-index key) does not pin the statement, while identifiers
// and numbers are substrings of the statement.
func TestStringLiteralsDoNotAliasTheStatement(t *testing.T) {
	src := "INSERT INTO items VALUES (7, 'plain', -2.5), (8, 'it''s', 3)"
	ins := mustParse(t, src).(*Insert)
	within := func(s string) bool {
		if len(s) == 0 {
			return false
		}
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
		return p >= lo && p < lo+uintptr(len(src))
	}
	if !within(ins.Table) {
		t.Errorf("table name %q was copied; identifiers alias the statement", ins.Table)
	}
	for _, row := range ins.Rows {
		if s := row[1].Str; within(s) {
			t.Errorf("string literal %q aliases the statement", s)
		}
	}
	toks, err := lex(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, tok := range toks {
		if tok.kind == tokNumber && !within(tok.text) {
			t.Errorf("number %q was copied; numbers alias the statement", tok.text)
		}
	}
}

// TestTokenBoundIsExactOnCommonShapes: for the statements a bulk load
// and the write workloads send, tokenBound is the token count itself,
// so lex allocates no more than it fills.
func TestTokenBoundIsExactOnCommonShapes(t *testing.T) {
	for _, src := range []string{
		insertStatement(50, 8),
		"UPDATE items SET v = 'abc' WHERE id = 48213",
		"DELETE FROM items WHERE id = 7",
		"SELECT COUNT(*) FROM items WHERE id BETWEEN 10 AND 99",
		"SELECT * FROM items WHERE id BETWEEN 10 AND 99 ORDER BY id LIMIT 10",
	} {
		toks, err := lex(src)
		if err != nil {
			t.Fatal(err)
		}
		if b := tokenBound(src); b != len(toks) {
			t.Errorf("%.60q: tokenBound %d, lexes to %d tokens", src, b, len(toks))
		}
	}
}

// insertStatement is a multi-row INSERT of (id, 'payload') rows, the
// shape of a bulk load, with every payload width bytes long.
func insertStatement(rows, width int) string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO items VALUES ")
	for id := 1; id <= rows; id++ {
		if id > 1 {
			sb.WriteString(", ")
		}
		sb.WriteByte('(')
		sb.WriteString(strconv.Itoa(id))
		sb.WriteString(", '")
		for i := 0; i < width; i++ {
			sb.WriteByte('a' + byte((id+i)%26))
		}
		sb.WriteString("')")
	}
	return sb.String()
}

// TestParseAllocationsDoNotGrowWithLiteralLength: a literal costs one
// allocation however long it is, so a 50-row INSERT allocates as often
// with 800-byte literals as with 8-byte ones.
func TestParseAllocationsDoNotGrowWithLiteralLength(t *testing.T) {
	allocs := func(width int) float64 {
		src := insertStatement(50, width)
		return testing.AllocsPerRun(20, func() {
			if _, err := Parse(src); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(8), allocs(800)
	t.Logf("allocations per Parse: %v with 8-byte literals, %v with 800-byte ones", short, long)
	if short != long {
		t.Fatalf("Parse allocates %v times with 8-byte literals and %v with 800-byte ones", short, long)
	}
}

var parsed Statement

// BenchmarkParseInsert parses one batch of the latency ledger's
// scan_mixed load: 500 rows of 180-byte literals.
func BenchmarkParseInsert(b *testing.B) {
	src := insertStatement(500, 180)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		parsed = s
	}
}

// BenchmarkParseUpdate parses write_mix's UPDATE: one 64-byte literal
// keyed by id.
func BenchmarkParseUpdate(b *testing.B) {
	src := "UPDATE items SET v = '" + strings.Repeat("k3J9", 16) + "' WHERE id = 48213"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		parsed = s
	}
}

// TestASCIIClassesMatchUnicode: the lexer's ASCII fast paths classify
// every byte below 0x80 as the unicode package does.
func TestASCIIClassesMatchUnicode(t *testing.T) {
	for b := 0; b < utf8.RuneSelf; b++ {
		c := byte(b)
		if isWordByte(c) != isIdentStart(rune(c)) {
			t.Errorf("isWordByte(%q) = %v, isIdentStart says %v", c, isWordByte(c), isIdentStart(rune(c)))
		}
		if isSpaceByte(c) != unicode.IsSpace(rune(c)) {
			t.Errorf("isSpaceByte(%q) = %v, unicode.IsSpace says %v", c, isSpaceByte(c), unicode.IsSpace(rune(c)))
		}
	}
}
