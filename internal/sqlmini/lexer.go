// Package sqlmini implements the SQL subset the embedded engine speaks:
//
//	CREATE TABLE t (col TYPE [PRIMARY KEY], ...)
//	INSERT INTO t VALUES (v, ...), (v, ...)
//	SELECT * | col, ... FROM t [WHERE pred [AND pred ...]] [LIMIT n]
//	UPDATE t SET col = v [, ...] [WHERE ...]
//	DELETE FROM t [WHERE ...]
//	DROP TABLE t
//
// Predicates are conjunctions of column/literal comparisons with
// =, !=, <>, <, <=, >, >= and BETWEEN lo AND hi. This covers the paper's
// workload — "a query load comprised purely of selection queries" — plus
// the updates §3 needs.
package sqlmini

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// tokenKind enumerates lexical token kinds.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol // ( ) , ; *
	tokOp     // = != <> < <= > >=
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// lexer produces tokens from a SQL string.
//
// Token texts follow one ownership rule: an identifier's, a number's or
// a symbol's text is a substring of the statement, but a string
// literal's text is a copy. A literal's value can outlive the statement
// (a secondary index keeps it as a key), and an alias would pin the
// whole statement text, a bulk INSERT's included, for as long as the
// value lives.
type lexer struct {
	src  string
	pos  int
	toks []token
}

// lex tokenizes src fully, returning an error with position on invalid
// input. The token buffer is sized once, from tokenBound.
func lex(src string) ([]token, error) {
	return lexInto(src, make([]token, 0, tokenBound(src)))
}

// tokenBound is an upper bound on the tokens src lexes to. A quoted run
// is one token, found with strings.IndexByte and not read byte by byte
// (a doubled quote splits a literal into two runs here, which only
// loosens the bound). Outside quoted runs every byte that is not white
// space can start a token, except one that continues a word: a letter
// or '_' after a letter or '_' (the same identifier), or a digit after
// a letter, '_', digit or '.' (the same identifier or number). The end
// of input is one more token.
func tokenBound(src string) int {
	n := 1
	var prev byte
	for i := 0; i < len(src); i++ {
		c := src[i]
		switch {
		case c == '\'':
			n++
			e := strings.IndexByte(src[i+1:], '\'')
			if e < 0 {
				return n
			}
			i += 1 + e
		case isWordByte(c):
			if !isWordByte(prev) {
				n++
			}
		case isDigit(c):
			if !isWordByte(prev) && !isDigit(prev) && prev != '.' {
				n++
			}
		case !isSpaceByte(c):
			n++
		}
		prev = c
	}
	return n
}

// lexInto is lex with a reusable token buffer: toks is truncated and
// appended to, so a hot caller (the plan cache's normalizer) can lex
// without growing a fresh slice per statement.
func lexInto(src string, toks []token) ([]token, error) {
	l := &lexer{src: src, toks: toks[:0]}
	for {
		l.pos = spaceEnd(l.src, l.pos)
		if l.pos >= len(l.src) {
			l.toks = append(l.toks, token{kind: tokEOF, pos: l.pos})
			return l.toks, nil
		}
		start := l.pos
		c := l.src[l.pos]
		switch {
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRuneInString(l.src[l.pos:])
			if !isIdentStart(r) {
				return nil, invalidChar(l.src[l.pos:l.pos+size], r, l.pos)
			}
			l.lexIdent()
		case isWordByte(c):
			l.lexIdent()
		case c >= '0' && c <= '9':
			if err := l.lexNumber(); err != nil {
				return nil, err
			}
		case c == '-' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]):
			l.pos++
			if err := l.lexNumber(); err != nil {
				return nil, err
			}
			last := &l.toks[len(l.toks)-1]
			last.text = l.src[start:l.pos]
			last.pos = start
		case c == '\'':
			if err := l.lexString(); err != nil {
				return nil, err
			}
		case strings.ContainsRune("(),;*", rune(c)):
			l.toks = append(l.toks, token{kind: tokSymbol, text: l.src[start : start+1], pos: start})
			l.pos++
		case c == '=' || c == '<' || c == '>' || c == '!':
			if err := l.lexOp(); err != nil {
				return nil, err
			}
		default:
			return nil, invalidChar(l.src[l.pos:l.pos+1], rune(c), l.pos)
		}
	}
}

// invalidChar reports the character at pos that starts no token: a
// rune, or a lone byte (enc) where the text is not valid UTF-8.
func invalidChar(enc string, r rune, pos int) error {
	if r == utf8.RuneError && len(enc) == 1 {
		return fmt.Errorf("sqlmini: invalid character %q at position %d", enc, pos)
	}
	return fmt.Errorf("sqlmini: invalid character %q at position %d", r, pos)
}

// spaceEnd returns the index just past the white space that starts at
// src[i]. Runes are decoded as UTF-8, so U+0085 and U+00A0 are spaces
// while a lone 0x85 or 0xA0 byte, which is not UTF-8, is not.
func spaceEnd(src string, i int) int {
	for i < len(src) {
		if c := src[i]; c < utf8.RuneSelf {
			if !isSpaceByte(c) {
				return i
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(src[i:])
		if !unicode.IsSpace(r) {
			return i
		}
		i += size
	}
	return i
}

// identEnd returns the index just past the identifier characters (a
// letter, '_' or an ASCII digit) that start at src[i].
func identEnd(src string, i int) int {
	for i < len(src) {
		if c := src[i]; c < utf8.RuneSelf {
			if !isWordByte(c) && !isDigit(c) {
				return i
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(src[i:])
		if !isIdentStart(r) {
			return i
		}
		i += size
	}
	return i
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

// isWordByte is isIdentStart for an ASCII byte: a letter or '_'.
func isWordByte(b byte) bool { return b|0x20 >= 'a' && b|0x20 <= 'z' || b == '_' }

// isSpaceByte is unicode.IsSpace for an ASCII byte.
func isSpaceByte(b byte) bool { return b == ' ' || b >= '\t' && b <= '\r' }

func isDigit(b byte) bool { return b >= '0' && b <= '9' }

func (l *lexer) lexIdent() {
	start := l.pos
	l.pos = identEnd(l.src, start)
	l.toks = append(l.toks, token{kind: tokIdent, text: l.src[start:l.pos], pos: start})
}

func (l *lexer) lexNumber() error {
	start := l.pos
	seenDot := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '.' {
			if seenDot {
				return fmt.Errorf("sqlmini: malformed number at position %d", start)
			}
			seenDot = true
			l.pos++
			continue
		}
		if !isDigit(c) {
			break
		}
		l.pos++
	}
	text := l.src[start:l.pos]
	if text == "." || strings.HasSuffix(text, ".") {
		return fmt.Errorf("sqlmini: malformed number %q at position %d", text, start)
	}
	l.toks = append(l.toks, token{kind: tokNumber, text: text, pos: start})
	return nil
}

// lexString reads a quoted literal, in which a doubled quote stands for
// one quote. It steps from quote to quote: a literal with no doubled
// quote is one exact-size copy of its bytes, and one with doubled quotes
// is appended a segment at a time.
func (l *lexer) lexString() error {
	start := l.pos
	i := start + 1 // past the opening quote
	var buf []byte
	for {
		q := strings.IndexByte(l.src[i:], '\'')
		if q < 0 {
			return fmt.Errorf("sqlmini: unterminated string at position %d", start)
		}
		q += i
		if q+1 < len(l.src) && l.src[q+1] == '\'' {
			buf = append(buf, l.src[i:q+1]...)
			i = q + 2
			continue
		}
		var text string
		if buf == nil {
			text = strings.Clone(l.src[i:q])
		} else {
			text = string(append(buf, l.src[i:q]...))
		}
		l.pos = q + 1
		l.toks = append(l.toks, token{kind: tokString, text: text, pos: start})
		return nil
	}
}

func (l *lexer) lexOp() error {
	start := l.pos
	c := l.src[l.pos]
	l.pos++
	two := func(second byte) bool {
		if l.pos < len(l.src) && l.src[l.pos] == second {
			l.pos++
			return true
		}
		return false
	}
	var text string
	switch c {
	case '=':
		text = "="
	case '!':
		if !two('=') {
			return fmt.Errorf("sqlmini: stray '!' at position %d", start)
		}
		text = "!="
	case '<':
		switch {
		case two('='):
			text = "<="
		case two('>'):
			text = "<>"
		default:
			text = "<"
		}
	case '>':
		if two('=') {
			text = ">="
		} else {
			text = ">"
		}
	}
	l.toks = append(l.toks, token{kind: tokOp, text: text, pos: start})
	return nil
}
