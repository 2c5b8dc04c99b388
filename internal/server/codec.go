package server

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
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

// flush sends buf as the 200 reply in ONE Write, as an Encoder did, so
// net/http frames it as before (Content-Length when the reply fits its
// buffer, one chunk when not), and pools buf.
func flush(w http.ResponseWriter, buf *[]byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	w.Write(*buf)
	putBuf(buf)
}

func writeQueryResponse(w http.ResponseWriter, columns []string, rows []catalog.Row, affected int, delay time.Duration) {
	buf := bufPool.Get().(*[]byte)
	*buf = appendQueryResponse(*buf, columns, rows, affected, delay)
	flush(w, buf)
}

// WriteQueryResponse answers 200 with resp, for a caller that holds its
// rows as strings already (the cluster router's merge).
func WriteQueryResponse(w http.ResponseWriter, resp *QueryResponse) {
	buf := bufPool.Get().(*[]byte)
	*buf = appendResponse(*buf, resp.Columns, resp.Rows, appendStrings, resp.Affected, resp.DelayMillis)
	flush(w, buf)
}

func appendQueryResponse(dst []byte, columns []string, rows []catalog.Row, affected int, delay time.Duration) []byte {
	return appendResponse(dst, columns, rows, appendValueRow, affected, float64(delay)/float64(time.Millisecond))
}

// appendResponse is the reply frame over either row source: columns and
// rows omitted when empty, Encode's trailing newline; delayMillis finite.
func appendResponse[R any](dst []byte, columns []string, rows []R, appendRow func([]byte, R) []byte, affected int, delayMillis float64) []byte {
	dst = append(dst, '{')
	if len(columns) > 0 {
		dst = append(dst, `"columns":`...)
		dst = append(appendStrings(dst, columns), ',')
	}
	if len(rows) > 0 {
		dst = append(dst, `"rows":`...)
		dst = append(appendList(dst, rows, appendRow), ',')
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

func appendValueRow(dst []byte, row catalog.Row) []byte {
	dst = append(dst, '[')
	for i := range row {
		if i > 0 {
			dst = append(dst, ',')
		}
		if v := &row[i]; v.Type == catalog.Int || v.Type == catalog.Float {
			// Digits, sign, '.', 'e', "NaN", "Inf": nothing to escape.
			dst = append(dst, '"')
			dst = v.AppendText(dst)
			dst = append(dst, '"')
		} else {
			dst = appendString(dst, v.String())
		}
	}
	return append(dst, ']')
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

func appendStrings(dst []byte, row []string) []byte { return appendList(dst, row, appendString) }

func appendInt(dst []byte, n int) []byte { return strconv.AppendInt(dst, int64(n), 10) }

// escapeBytes have a two-character escape: a backslash and the letter at
// the same index of escapeLetters. The last pair is only ever read.
const (
	escapeBytes   = "\"\\\b\f\n\r\t/"
	escapeLetters = `"\bfnrt/`
	hexDigits     = "0123456789abcdef"
)

// jsonSafe marks the bytes encoding/json leaves unescaped (HTML-safe).
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for b := range t {
		t[b] = b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return t
}()

// appendString appends s as a JSON string with encoding/json's escapes:
// two characters where JSON has them, \u00XX for the other control bytes
// and for < > &, \u2028 and \u2029 spelled out, and \ufffd for each byte
// of invalid UTF-8.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf && jsonSafe[b] {
			i++
			continue
		}
		c, size := rune(b), 1
		if b >= utf8.RuneSelf {
			if c, size = utf8.DecodeRuneInString(s[i:]); c != '\u2028' && c != '\u2029' && (c != utf8.RuneError || size != 1) {
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
// sends — {"sql":"..."}, two-character escapes, the router's "pfilter" —
// is read by hand; anything else (other keys or key case, duplicates, \u
// escapes, null, trailing bytes) goes WHOLE to json.Unmarshal, so the lax
// cases stay encoding/json's to define.
func ParseQueryRequest(body []byte) (QueryRequest, error) {
	if q, ok := parseQueryFast(body); ok {
		return q, nil
	}
	var q QueryRequest
	err := json.Unmarshal(body, &q)
	return q, err
}

func parseQueryFast(body []byte) (q QueryRequest, ok bool) {
	s := reqScanner{b: body}
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

// reqScanner walks a request body for parseQueryFast. bad latches once a
// token is anything but its plainest form; the caller checks it at the end.
type reqScanner struct {
	b   []byte
	i   int
	bad bool
}

func (s *reqScanner) ws() {
	for s.i < len(s.b) && (s.b[s.i] == ' ' || s.b[s.i] == '\t' || s.b[s.i] == '\r' || s.b[s.i] == '\n') {
		s.i++
	}
}

// lit consumes tok, after optional whitespace, if it is next.
func (s *reqScanner) lit(tok string) bool {
	s.ws()
	if len(s.b)-s.i < len(tok) || string(s.b[s.i:s.i+len(tok)]) != tok {
		return false
	}
	s.i += len(tok)
	return true
}

// want consumes toks in order, or latches bad.
func (s *reqScanner) want(toks ...string) {
	for _, tok := range toks {
		s.bad = !s.lit(tok) || s.bad
	}
}

// uint reads a non-negative integer of at most 18 digits (so it cannot
// overflow) with no leading zero, sign, fraction or exponent.
func (s *reqScanner) uint() int {
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

// str reads a string of valid UTF-8 whose only escapes are the
// two-character ones.
func (s *reqScanner) str() string {
	s.want(`"`)
	start := s.i
	var raw []byte // nil until the first escape, then the string so far
	for ; s.i < len(s.b) && s.b[s.i] >= ' '; s.i++ {
		c := s.b[s.i]
		if c == '"' {
			if raw == nil {
				raw = s.b[start:s.i]
			}
			s.i++
			s.bad = s.bad || !utf8.Valid(raw)
			return string(raw)
		}
		if c == '\\' {
			if raw == nil {
				raw = append(make([]byte, 0, len(s.b)-start), s.b[start:s.i]...)
			}
			s.i++
			if s.i == len(s.b) || strings.IndexByte(escapeLetters, s.b[s.i]) < 0 {
				break
			}
			c = escapeBytes[strings.IndexByte(escapeLetters, s.b[s.i])]
		}
		if raw != nil {
			raw = append(raw, c)
		}
	}
	s.bad = true
	return ""
}
