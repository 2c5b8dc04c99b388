package sqlmini

import (
	"fmt"
	"strconv"
	"strings"
)

// NormScratch holds the reusable buffers Normalize lexes and renders
// into, so a hot caller (the engine's plan cache) normalizes a statement
// with no per-call allocation once the buffers have warmed up. The zero
// value is ready to use. Not safe for concurrent use.
type NormScratch struct {
	toks   []token
	buf    []byte
	params []Literal
}

// Normalize renders src as a canonical parameterized key: identifiers
// and keywords are uppercased (ASCII), whitespace collapses to a single
// separator, trailing semicolons are dropped, and every literal is
// replaced by '?' with its parsed value appended to params in token
// order. Two statements that differ only in literal values, letter case,
// or spacing therefore share a key, which is exactly the equivalence the
// plan cache needs: the parse of one is (schema permitting) a valid
// template for the other, with params re-bound per execution.
//
// The returned key and params alias sc's buffers and are valid only
// until the next Normalize call with the same scratch.
func Normalize(src string, sc *NormScratch) (key []byte, params []Literal, err error) {
	toks, err := lexInto(src, sc.toks)
	if toks != nil {
		sc.toks = toks
	}
	if err != nil {
		return nil, nil, err
	}
	// toks ends with tokEOF; semicolons directly before it are
	// insignificant (Parse accepts one trailing ';').
	end := len(toks) - 1
	for end > 0 && toks[end-1].kind == tokSymbol && toks[end-1].text == ";" {
		end--
	}
	buf := sc.buf[:0]
	params = sc.params[:0]
	for _, t := range toks[:end] {
		if len(buf) > 0 {
			buf = append(buf, ' ')
		}
		switch t.kind {
		case tokIdent:
			for i := 0; i < len(t.text); i++ {
				c := t.text[i]
				if c >= 'a' && c <= 'z' {
					c -= 'a' - 'A'
				}
				buf = append(buf, c)
			}
		case tokNumber:
			lit, perr := numberLiteral(t.text)
			if perr != nil {
				return nil, nil, perr
			}
			params = append(params, lit)
			buf = append(buf, '?')
		case tokString:
			params = append(params, Literal{Kind: StringLit, Str: t.text})
			buf = append(buf, '?')
		default:
			buf = append(buf, t.text...)
		}
	}
	sc.buf, sc.params = buf, params
	return buf, params, nil
}

// numberLiteral parses a number token's text exactly as parseLiteral
// does, so normalized parameters carry the same values the parser would
// have produced.
func numberLiteral(text string) (Literal, error) {
	if strings.Contains(text, ".") {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return Literal{}, fmt.Errorf("sqlmini: bad float %q: %w", text, err)
		}
		return Literal{Kind: FloatLit, Float: f}, nil
	}
	n, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return Literal{}, fmt.Errorf("sqlmini: bad integer %q: %w", text, err)
	}
	return Literal{Kind: IntLit, Int: n}, nil
}

// HasPrefixKeyword reports whether src's first token is the given
// keyword (case-insensitive). The plan cache uses it to classify
// statements without lexing: only SELECTs are worth normalizing. White
// space, comments and identifier characters follow the lexer's own rules.
func HasPrefixKeyword(src, kw string) bool {
	i := gapEnd(src, 0)
	j := identEnd(src, i)
	return j-i == len(kw) && strings.EqualFold(src[i:j], kw)
}
