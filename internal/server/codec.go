package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"repro/internal/catalog"
)

// This file is the /query wire codec, written and read by hand. The bytes
// are encoding/json's — a reply is what json.NewEncoder(w).Encode(
// QueryResponse{...}) wrote, a request what json.Marshal(QueryRequest{...})
// returns — so any JSON client keeps reading them (DESIGN.md §18); every
// other endpoint, and server.Client, stay on encoding/json.

// bufPool holds the buffers a /query handler reads its request into and
// builds its reply in; one that grew past maxPooledBuf is dropped instead.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

const maxPooledBuf = 1 << 20

func putBuf(b *[]byte) {
	if cap(*b) <= maxPooledBuf {
		*b = (*b)[:0]
		bufPool.Put(b)
	}
}

// readBody appends everything r yields to buf.
func readBody(r io.Reader, buf []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// jsonContentType is shared by every reply: net/http never writes into a
// header value, and assigning one skips Header.Set's key scan and slice.
var jsonContentType = []string{"application/json"}

// writeReply sends reply as the 200 in ONE Write, as an Encoder did, so
// net/http frames it as before (Content-Length when the reply fits its
// buffer, one chunk when not).
func writeReply(w http.ResponseWriter, reply []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	w.Write(reply)
}

// WriteQueryResponse answers 200 with rows that are on the wire's form
// already: the cluster router's merge, relaying what its legs carried.
func WriteQueryResponse(w http.ResponseWriter, columns []string, rows []RawRow, affected int, delayMillis float64) {
	buf := bufPool.Get().(*[]byte)
	*buf = appendResponse(*buf, columns, rows, affected, delayMillis)
	writeReply(w, *buf)
	putBuf(buf)
}

// appendResponse is the reply frame over rows already on the wire's
// form: columns and rows omitted when empty, Encode's trailing newline;
// delayMillis finite. ScanQueryResponse reads exactly this and nothing
// else; a shard's own reply, which replyEncoder writes while its
// statement runs, is the same frame.
func appendResponse(dst []byte, columns []string, rows []RawRow, affected int, delayMillis float64) []byte {
	dst = replyEncoder{}.AppendColumns(append(dst, '{'), columns)
	for i, row := range rows {
		dst = appendRowOpen(dst, i)
		dst = append(append(dst, row...), ']')
	}
	return appendReplyTail(dst, len(rows), affected, delayMillis)
}

// replyEncoder is the engine.RowEncoder of a /query reply: the frame's
// head and each row's cells, written onto a body that holds the frame's
// opening brace, as the statement reads the rows. appendReplyTail
// completes it.
type replyEncoder struct{}

func (replyEncoder) AppendColumns(dst []byte, cols []string) []byte {
	if len(cols) == 0 {
		return dst
	}
	dst = append(dst, `"columns":[`...)
	return append(appendCells(dst, cols), ']', ',')
}

// AppendRow copies a verbatim cell between its quotes unread: the check
// appendString would make was made once, when the cell was written.
func (replyEncoder) AppendRow(dst []byte, i int, cells [][]byte, verbatim []bool) []byte {
	dst = appendRowOpen(dst, i)
	for j, c := range cells {
		if j > 0 {
			dst = append(dst, ',')
		}
		if verbatim[j] {
			dst = append(append(append(dst, '"'), c...), '"')
		} else {
			dst = appendString(dst, c)
		}
	}
	return append(dst, ']')
}

// appendRowOpen opens row i of the frame's rows array.
func appendRowOpen(dst []byte, i int) []byte {
	if i == 0 {
		return append(dst, `"rows":[[`...)
	}
	return append(dst, ',', '[')
}

// appendReplyTail closes a frame that holds rows rows: the rows array,
// then the two numbers and Encode's trailing newline.
func appendReplyTail(dst []byte, rows, affected int, delayMillis float64) []byte {
	if rows > 0 {
		dst = append(dst, ']', ',')
	}
	dst = append(dst, `"affected":`...)
	dst = append(appendInt(dst, affected), `,"delay_millis":`...)
	return append(appendFloat(dst, delayMillis), '}', '\n')
}

// appendFloat formats f as encoding/json does (ES6, not %g): fixed
// notation from 1e-6 up to 1e21, a one-digit negative exponent unpadded.
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// appendList appends items as a JSON array — null when nil, as
// encoding/json has it — each element written by one.
func appendList[T any](dst []byte, items []T, one func([]byte, T) []byte) []byte {
	if items == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, item := range items {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = one(dst, item)
	}
	return append(dst, ']')
}

// appendCells appends cells as JSON strings with commas between: what
// stands between the brackets of the columns, or of a row.
func appendCells(dst []byte, cells []string) []byte {
	for i, c := range cells {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, c)
	}
	return dst
}

func appendInt(dst []byte, n int) []byte { return strconv.AppendInt(dst, int64(n), 10) }

// escapeBytes have a two-character escape: a backslash and the letter at
// the same index of escapeLetters. The last pair is only ever read.
const (
	escapeBytes   = "\"\\\b\f\n\r\t/"
	escapeLetters = `"\bfnrt/`
	hexDigits     = "0123456789abcdef"
)

// jsonSafe marks the bytes encoding/json leaves unescaped (HTML-safe):
// catalog.PlainByte's, the definition a TEXT cell's verbatim bit uses
// too; none from 0x80 up, where a byte is part of a rune.
var jsonSafe = func() (t [256]bool) {
	for b := range t {
		t[b] = catalog.PlainByte(byte(b))
	}
	return t
}()

// appendString appends s as a JSON string with encoding/json's escapes:
// two characters where JSON has them, \u00XX for the other control bytes
// and for < > &, \u2028 and \u2029 spelled out, and \ufffd for each byte
// of invalid UTF-8 — what Encode writes for string(s).
func appendString[S string | []byte](dst []byte, s S) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if jsonSafe[b] {
			i++
			continue
		}
		c, size := rune(b), 1
		if b >= utf8.RuneSelf {
			if c, size = utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))])); c != '\u2028' && c != '\u2029' && (c != utf8.RuneError || size != 1) {
				i += size
				continue
			}
		}
		dst = append(dst, s[start:i]...)
		if j := strings.IndexByte(escapeBytes[:7], b); j >= 0 {
			dst = append(dst, '\\', escapeLetters[j])
		} else {
			dst = append(dst, '\\', 'u', hexDigits[c>>12&0xF], hexDigits[c>>8&0xF], hexDigits[c>>4&0xF], hexDigits[c&0xF])
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendQueryRequest appends the request body json.Marshal(q) produces.
func AppendQueryRequest(dst []byte, q QueryRequest) []byte {
	dst = append(dst, `{"sql":`...)
	dst = appendString(dst, q.SQL)
	if f := q.PFilter; f != nil {
		dst = append(dst, `,"pfilter":{"count":`...)
		dst = append(appendInt(dst, f.Count), `,"include":`...)
		dst = append(appendList(dst, f.Include, appendInt), '}')
	}
	return append(dst, '}')
}

// ParseQueryRequest decodes a /query request body. The shape every client
// sends — {"sql":"..."}, the escapes appendString writes (so the router's
// own legs), the router's "pfilter" — is read by hand; anything else (other
// keys or key case, duplicates, other \u escapes, null, trailing bytes)
// goes WHOLE to json.Unmarshal, so the lax cases stay encoding/json's to
// define.
func ParseQueryRequest(body []byte) (QueryRequest, error) {
	if q, ok := parseQueryFast(body); ok {
		return q, nil
	}
	var q QueryRequest
	err := json.Unmarshal(body, &q)
	return q, err
}

func parseQueryFast(body []byte) (q QueryRequest, ok bool) {
	s := scanner{b: body}
	s.want(`{`, `"sql"`, `:`)
	q.SQL = s.str()
	if s.lit(`,`) {
		q.PFilter = &PartitionFilter{}
		s.want(`"pfilter"`, `:`, `{`, `"count"`, `:`)
		q.PFilter.Count = s.uint()
		s.want(`,`, `"include"`, `:`, `[`)
		for more := true; more; more = s.lit(`,`) {
			q.PFilter.Include = append(q.PFilter.Include, s.uint())
		}
		s.want(`]`, `}`)
	}
	s.want(`}`)
	s.ws()
	return q, !s.bad && s.i == len(s.b)
}

// scanner walks a /query body: a request's, for parseQueryFast, or with
// strict set a reply's, for ScanQueryResponse. bad latches once a token is
// anything but its plainest form; the caller checks it at the end.
type scanner struct {
	b      []byte
	i      int
	strict bool // no whitespace between tokens
	bad    bool
}

func (s *scanner) ws() {
	for !s.strict && s.i < len(s.b) && (s.b[s.i] == ' ' || s.b[s.i] == '\t' || s.b[s.i] == '\r' || s.b[s.i] == '\n') {
		s.i++
	}
}

// lit consumes tok, after optional whitespace, if it is next.
func (s *scanner) lit(tok string) bool {
	s.ws()
	if len(s.b)-s.i < len(tok) || string(s.b[s.i:s.i+len(tok)]) != tok {
		return false
	}
	s.i += len(tok)
	return true
}

// is consumes c if it is the very next byte.
func (s *scanner) is(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// want consumes toks in order, or latches bad.
func (s *scanner) want(toks ...string) {
	for _, tok := range toks {
		s.bad = !s.lit(tok) || s.bad
	}
}

// uint reads a non-negative integer of at most 18 digits (so it cannot
// overflow) with no leading zero, sign, fraction or exponent.
func (s *scanner) uint() int {
	s.ws()
	start, n := s.i, 0
	for s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9' && s.i-start < 18 {
		n = n*10 + int(s.b[s.i]-'0')
		s.i++
	}
	if digits := s.i - start; digits == 0 || (digits > 1 && s.b[start] == '0') {
		s.bad = true
	}
	return n
}

// readEscape decodes the escape b starts with: one appendString writes —
// a two-character form, or \u and four lower-case hex digits for a byte
// that has none, U+2028, U+2029 or U+FFFD — or \/, which only a request
// may spell. n is its length, 0 for anything else (upper-case hex, a
// surrogate, any other code point).
func readEscape(b []byte) (r rune, n int) {
	if len(b) >= 2 {
		if j := strings.IndexByte(escapeLetters, b[1]); j >= 0 {
			return rune(escapeBytes[j]), 2
		}
	}
	if len(b) < 6 || b[1] != 'u' {
		return 0, 0
	}
	for _, h := range b[2:6] {
		d := strings.IndexByte(hexDigits, h)
		if d < 0 {
			return 0, 0
		}
		r = r<<4 | rune(d)
	}
	if r == '\u2028' || r == '\u2029' || r == utf8.RuneError ||
		r < utf8.RuneSelf && !jsonSafe[r] && strings.IndexByte(escapeBytes, byte(r)) < 0 {
		return r, 6
	}
	return 0, 0
}

// unescape returns text, a string quoted accepted, with its escapes
// decoded — all of them, or with only >= 0 just those of that rune: text
// itself when it holds no escape, else a copy.
func unescape(text []byte, only rune) []byte {
	i := bytes.IndexByte(text, '\\')
	if i < 0 {
		return text
	}
	out := make([]byte, 0, len(text))
	for ; i >= 0; i = bytes.IndexByte(text, '\\') {
		r, n := readEscape(text[i:])
		if out = append(out, text[:i]...); only < 0 || r == only {
			out = utf8.AppendRune(out, r)
		} else {
			out = append(out, text[i:i+n]...)
		}
		text = text[i+n:]
	}
	return append(out, text...)
}

// quoted consumes one JSON string whose escapes are readEscape's and
// returns its text, still escaped. Strict, it is spelled exactly as
// appendString spells it; else it may hold any byte JSON lets a string
// hold, its UTF-8 the caller's to check. replaced: it spells \ufffd.
func (s *scanner) quoted() (text []byte, replaced bool) {
	if s.ws(); !s.is('"') {
		s.bad = true
		return nil, false
	}
	b, start, i := s.b, s.i, s.i // locals: the loop is most of a scan's time
scan:
	for i < len(b) {
		switch c := b[i]; {
		case jsonSafe[c]:
			for i++; i+4 <= len(b) && jsonSafe[b[i]] && jsonSafe[b[i+1]] && jsonSafe[b[i+2]] && jsonSafe[b[i+3]]; i += 4 {
			}
		case c == '"':
			s.i = i + 1
			return b[start:i], replaced
		case c == '\\':
			r, n := readEscape(b[i:])
			if n == 0 || s.strict && r == '/' {
				break scan
			}
			replaced = replaced || r == utf8.RuneError
			i += n
		case !s.strict && c >= ' ':
			i++
		default:
			// A control byte; strict, also a byte or a rune appendString
			// never leaves as it is.
			r, n := utf8.DecodeRune(b[i:])
			if n == 1 || r == '\u2028' || r == '\u2029' {
				break scan
			}
			i += n
		}
	}
	s.bad = true
	return nil, false
}

// str reads a string of valid UTF-8.
func (s *scanner) str() string {
	text, _ := s.quoted()
	s.bad = s.bad || !utf8.Valid(text)
	return string(unescape(text, -1))
}

// RawRow is the cells of one row as appendString wrote them, commas
// between: what stands between the row's brackets on the wire.
type RawRow []byte

// NewRawRow encodes cells.
func NewRawRow(cells []string) RawRow { return appendCells(nil, cells) }

// cellEnd returns the index just past the cell that opens at r[i].
func cellEnd(r []byte, i int) int {
	for i++; r[i] != '"'; i++ {
		if r[i] == '\\' {
			i++
		}
	}
	return i + 1
}

// Cell returns the text of cell idx, which the row must have: a slice of
// the row, or a copy when the cell holds an escape.
func (r RawRow) Cell(idx int) []byte {
	i := 0
	for ; idx > 0; idx-- {
		i = cellEnd(r, i) + 1
	}
	return unescape(r[i+1:cellEnd(r, i)-1], -1)
}

// DropLast returns r without its last cell.
func (r RawRow) DropLast() RawRow {
	last := 0
	for i := 0; i < len(r); i = cellEnd(r, i) + 1 {
		last = i
	}
	return r[:max(last-1, 0)]
}

// ReplyView is a 200's body as ScanQueryResponse found it: the frame's
// few scalars decoded, every row still the bytes the shard wrote. It
// aliases the body, which must stay untouched while the view is read.
type ReplyView struct {
	Columns     []string
	Affected    int
	DelayMillis float64

	body []byte
	rows []rowSpan
	// replaced: some cell spells \ufffd, appendString's mark for a byte of
	// invalid UTF-8. Decoded and encoded again — what any reader of the
	// reply does, and the merge did before it copied spans — that is a
	// real U+FFFD, which appendString leaves raw; Row rewrites it so.
	replaced bool
}

// rowSpan is one row's RawRow: body[start:end].
type rowSpan struct{ start, end int }

// NumRows is the number of rows the reply carries.
func (v *ReplyView) NumRows() int { return len(v.rows) }

// Row returns row i, len(v.Columns) cells wide: appended to a reply it
// is byte for byte what decoding and re-encoding the row would write.
func (v *ReplyView) Row(i int) RawRow {
	row := v.body[v.rows[i].start:v.rows[i].end]
	if v.replaced {
		row = unescape(row, utf8.RuneError)
	}
	return row
}

var errNotFrame = errors.New("not a /query reply frame")

// rowSep cannot occur inside a cell — a quote there follows a backslash,
// so the second one would have to follow the bracket — which makes
// counting it counting rows.
var rowSep = []byte(`"],["`)

// ScanQueryResponse reads exactly the frame appendResponse writes: keys
// in its order, no whitespace, columns and rows present or omitted, every
// row as wide as the columns, every string spelled as appendString spells
// it, both numbers as it formats them, the newline, nothing after. Any
// other body — a reply cut short at any byte, valid JSON in another
// spelling — is an error: what it accepts, copying a row reproduces.
func ScanQueryResponse(body []byte) (ReplyView, error) {
	v := ReplyView{body: body}
	s := scanner{b: body, strict: true}
	cell := func() []byte {
		text, replaced := s.quoted()
		v.replaced = v.replaced || replaced
		return text
	}
	s.want(`{`)
	if s.lit(`"columns":[`) {
		v.Columns = make([]string, 0, 8) // one allocation for most tables
		for more := true; more; more = s.lit(`,`) {
			v.Columns = append(v.Columns, string(unescape(cell(), -1)))
		}
		s.want(`],`)
	}
	if s.lit(`"rows":[`) {
		v.rows = make([]rowSpan, 0, bytes.Count(body[s.i:], rowSep)+1)
		for more := true; more; more = s.is(',') {
			s.want(`[`)
			start, width := s.i, 0
			for more := s.i < len(body) && body[s.i] != ']'; more; more = s.is(',') {
				cell()
				width++
			}
			v.rows = append(v.rows, rowSpan{start, s.i})
			s.bad = !s.is(']') || s.bad || width != len(v.Columns)
		}
		s.want(`],`)
	}
	// Each number must be the one spelling the encoder has for it.
	var canon [32]byte
	s.want(`"affected":`)
	num := s.until(',')
	affected, err := strconv.ParseInt(string(num), 10, 64)
	s.bad = s.bad || err != nil || string(strconv.AppendInt(canon[:0], affected, 10)) != string(num)
	v.Affected = int(affected)
	s.want(`,"delay_millis":`)
	num = s.until('}')
	v.DelayMillis, err = strconv.ParseFloat(string(num), 64)
	s.bad = s.bad || err != nil || math.IsInf(v.DelayMillis, 0) || math.IsNaN(v.DelayMillis) ||
		string(appendFloat(canon[:0], v.DelayMillis)) != string(num)
	if s.want("}\n"); s.bad || s.i != len(body) {
		return ReplyView{}, errNotFrame
	}
	return v, nil
}

// until consumes the bytes before the next c.
func (s *scanner) until(c byte) []byte {
	n := max(bytes.IndexByte(s.b[s.i:], c), 0)
	s.i += n
	return s.b[s.i-n : s.i]
}
