package sqlmini

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unicode"
)

// FuzzParse is a native fuzz target; `go test` runs the seed corpus, and
// `go test -fuzz=FuzzParse ./internal/sqlmini` explores further. Parse
// must never panic, and anything it accepts must be a non-nil statement.
// Two properties ride along:
//   - a SELECT, INSERT, UPDATE or DELETE it accepts (EXPLAIN aside)
//     survives the router's rewrite: Parse(Render(stmt)) is stmt;
//   - every string token's text and position are what refLexString, a
//     byte-at-a-time reference decoder, reads at that position, and the
//     next token starts where the reference's literal ends;
//   - lex never produces more tokens than tokenBound, which sizes its
//     buffer.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"SELECT * FROM t",
		"SELECT a, b FROM t WHERE a = 1 AND b BETWEEN 2 AND 3 ORDER BY a DESC LIMIT 5",
		"SELECT COUNT(*), SUM(v) FROM t WHERE s = 'x''y'",
		"INSERT INTO t VALUES (1, 'a', -2.5), (2, '', 0)",
		"UPDATE t SET a = 1, b = 'x' WHERE id >= -9",
		"DELETE FROM t WHERE id <> 0",
		"CREATE TABLE t (id INT PRIMARY KEY, v TEXT)",
		"CREATE INDEX i ON t (v)",
		"DROP INDEX i ON t",
		"DROP TABLE t;",
		"EXPLAIN SELECT * FROM t WHERE id = 1",
		"SELECT * FROM t WHERE a = 1.2.3",
		"SELECT * FROM t WHERE a = '",
		"\x00\x01\x02",
		"SELECT (((",
		"SELECT a1b2, 12x, x.5, 1.5e FROM t WHERE a<=-1 AND b<>2",
		// String literals: empty, a doubled quote at the start, middle
		// and end, only doubled quotes, unterminated after a doubled one.
		"SELECT * FROM t WHERE v = ''",
		"UPDATE t SET v = '''abc' WHERE id = 1",
		"UPDATE t SET v = 'ab''c' WHERE id = 1",
		"UPDATE t SET v = 'abc''' WHERE id = 1",
		"INSERT INTO t VALUES (1, ''''''), (2, '''')",
		"INSERT INTO t VALUES (1, 'abc''",
		"SELECT * FROM t WHERE v = 'x\xff\x85y'",
		// Floats the router once rendered in exponent form or as ints.
		"INSERT INTO t VALUES (1, 2500000.5), (2, 0.00001), (3, 2.0)",
		"SELECT COUNT(*), SUM(amount) FROM t WHERE amount >= 1000000.5",
		"UPDATE t SET a = -0.0 WHERE b < 100000000000000000000.0",
		// Identifiers and white space beyond ASCII.
		"CREATE TABLE dà (id INT PRIMARY KEY)",
		"SELECT * FROM té",
		"SELECT * FROM t\u0085",
		"SELECT\u00a0*\u2003FROM t",
		"SELECT * FROM t\x85",
		"SELECT * FROM t€",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		checkStringTokens(t, src)
		stmt, err := Parse(src)
		if err != nil {
			return
		}
		if stmt == nil {
			t.Fatalf("nil statement without error for %q", src)
		}
		switch s := stmt.(type) {
		case *Select:
			if s.Explain {
				return
			}
		case *Insert, *Update, *Delete:
		default:
			return
		}
		sql := Render(stmt)
		back, err := Parse(sql)
		if err != nil {
			t.Fatalf("Render(Parse(%q)) = %q does not parse: %v", src, sql, err)
		}
		if !reflect.DeepEqual(back, stmt) {
			t.Fatalf("%q renders as %q, which parses to\n  %#v\nnot\n  %#v", src, sql, back, stmt)
		}
	})
}

// checkStringTokens holds every string token lex produces for src to
// the reference decoder.
func checkStringTokens(t *testing.T, src string) {
	t.Helper()
	toks, err := lex(src)
	if err != nil {
		var at int
		if _, scanErr := fmt.Sscanf(err.Error(), "sqlmini: unterminated string at position %d", &at); scanErr == nil {
			if _, _, ok := refLexString(src, at); ok {
				t.Fatalf("%q: lex calls the string at %d unterminated, the reference reads it whole", src, at)
			}
		}
		return
	}
	for i, tok := range toks {
		if tok.kind != tokString {
			continue
		}
		text, end, ok := refLexString(src, tok.pos)
		if !ok {
			t.Fatalf("%q: lex accepted a string at %d the reference calls unterminated", src, tok.pos)
		}
		if tok.text != text {
			t.Fatalf("%q: string at %d is %q, the reference reads %q", src, tok.pos, tok.text, text)
		}
		if next := toks[i+1].pos; next < end || strings.TrimLeftFunc(src[end:next], unicode.IsSpace) != "" {
			t.Fatalf("%q: the reference ends the string at %d, the next token is at %d", src, end, next)
		}
	}
	if bound := tokenBound(src); len(toks) > bound {
		t.Fatalf("%q lexes to %d tokens, more than tokenBound's %d", src, len(toks), bound)
	}
}

// refLexString is the lexer's string reader as it was written first,
// one byte at a time: it reads the literal whose opening quote is at
// src[start] and returns its text and the index just past its closing
// quote, or ok=false when the literal is unterminated.
func refLexString(src string, start int) (text string, end int, ok bool) {
	if start >= len(src) || src[start] != '\'' {
		return "", start, false
	}
	pos := start + 1
	var sb strings.Builder
	for pos < len(src) {
		c := src[pos]
		if c == '\'' {
			if pos+1 < len(src) && src[pos+1] == '\'' {
				sb.WriteByte('\'')
				pos += 2
				continue
			}
			return sb.String(), pos + 1, true
		}
		sb.WriteByte(c)
		pos++
	}
	return "", pos, false
}
