package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
)

// fuzzSrc deals a fuzz input out as the bytes, integers and short strings
// a reply is built from; an exhausted input deals zeros.
type fuzzSrc struct{ b []byte }

func (s *fuzzSrc) byte() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

func (s *fuzzSrc) u64() uint64 {
	var v [8]byte
	s.b = s.b[copy(v[:], s.b):]
	return binary.LittleEndian.Uint64(v[:])
}

func (s *fuzzSrc) str() string {
	n := min(int(s.byte()), len(s.b))
	out := string(s.b[:n])
	s.b = s.b[n:]
	return out
}

// replySeed lays a reply out in fuzzSrc's format (strings under 256
// bytes), so the seed corpus can be written as values.
func replySeed(delay time.Duration, affected int64, columns []string, rows []catalog.Row) []byte {
	u64 := func(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
	str := func(b []byte, s string) []byte { return append(append(b, byte(len(s))), s...) }
	b := u64(u64(nil, uint64(delay)), uint64(affected))
	b = append(b, byte(len(columns)))
	for _, c := range columns {
		b = str(b, c)
	}
	b = append(b, byte(len(rows)))
	for _, row := range rows {
		b = append(b, byte(len(row)))
		for _, v := range row {
			b = append(b, byte(v.Type-catalog.Int))
			switch v.Type {
			case catalog.Int:
				b = u64(b, uint64(v.Int))
			case catalog.Float:
				b = u64(b, math.Float64bits(v.Float))
			case catalog.Text:
				b = str(b, v.Str)
			}
		}
	}
	return b
}

// maxFuzzDelay is the 10 s the shield's delay cap defaults to.
const maxFuzzDelay = 10 * time.Second

// reencode is what a reader of reply that writes it out again produces —
// the router's merge, before it copied spans: json.Unmarshal, then Encode.
func reencode(t *testing.T, reply []byte) (QueryResponse, []byte) {
	t.Helper()
	var resp QueryResponse
	if err := json.Unmarshal(reply, &resp); err != nil {
		t.Fatalf("%q: %v", reply, err)
	}
	var out bytes.Buffer
	if err := json.NewEncoder(&out).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

// rewrite is the same trip through the codec: nothing decoded but the
// frame, every row copied as the bytes it came as.
func rewrite(v *ReplyView) []byte {
	rows := make([]RawRow, v.NumRows())
	for i := range rows {
		rows[i] = v.Row(i)
	}
	rec := httptest.NewRecorder()
	WriteQueryResponse(rec, v.Columns, rows, v.Affected, v.DelayMillis)
	return rec.Body.Bytes()
}

// rectangular reports whether every row is as wide as the columns (and
// none is null): the one thing ScanQueryResponse asks of a reply beyond
// its spelling.
func rectangular(columns []string, rows [][]string) bool {
	for _, row := range rows {
		if row == nil || len(row) != len(columns) {
			return false
		}
	}
	return true
}

// encodeReply writes the reply a statement returning rows would: through
// replyEncoder, each cell handed over as its text with the verbatim bit
// the engine's row writer hands over for a stamped table's record — a
// number's always, a TEXT cell's when catalog.Verbatim says so, never
// that of a value of no type.
func encodeReply(columns []string, rows []catalog.Row, affected int, delay time.Duration) []byte {
	var enc replyEncoder
	dst := enc.AppendColumns([]byte{'{'}, columns)
	for i, row := range rows {
		cells := make([][]byte, len(row))
		verbatim := make([]bool, len(row))
		for j, v := range row {
			cells[j] = v.AppendText(nil)
			switch v.Type {
			case catalog.Int, catalog.Float:
				verbatim[j] = true
			case catalog.Text:
				verbatim[j] = catalog.Verbatim(v.Str)
			}
		}
		dst = enc.AppendRow(dst, i, cells, verbatim)
	}
	return appendReplyTail(dst, len(rows), affected, float64(delay)/float64(time.Millisecond))
}

// FuzzAppendQueryResponse: the hand-written reply encoder produces the
// bytes encoding/json's Encoder does for the same reply, and the reply
// scanner reads every rectangular one of them back: copying its rows out
// again is byte for byte a decode and a re-encode.
func FuzzAppendQueryResponse(f *testing.F) {
	I, F, T := catalog.IntValue, catalog.FloatValue, catalog.TextValue
	f.Add([]byte{})
	f.Add(replySeed(0, 1, nil, nil))
	f.Add(replySeed(time.Millisecond, 0, []string{"id", "v"}, nil))
	f.Add(replySeed(maxFuzzDelay, 0, []string{"id", "v", "f"}, []catalog.Row{
		{I(1), T("one"), F(0.375)},
		{I(math.MinInt64), T(`<b>&"q"\</b>`), F(math.NaN())},
		{I(math.MaxInt64), T("line\u2028sep\u2029 \b\f\n\r\t\x00\x1f\x7f"), F(math.Inf(1))},
		{I(-1), T("\xed\xa0\x80 lone surrogate, \xff\xfe invalid, \xc3 cut"), F(math.Inf(-1))},
		{I(0), T("é 日本 \U0001F600 \ufffd"), F(math.Copysign(0, -1))},
		{},
	}))
	f.Add(replySeed(1, 7, []string{"<count(*)>", ""}, []catalog.Row{{F(1e21), F(1e-7), F(123456789), F(1.0 / 3)}}))
	f.Add(replySeed(999, 0, []string{"x"}, []catalog.Row{{{Type: catalog.Text + 1}}}))
	f.Add(replySeed(6833333, 0, []string{"a"}, []catalog.Row{{T("")}, {T(strings.Repeat("x<", 100))}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		src := fuzzSrc{b: data}
		delay := time.Duration(src.u64() % uint64(maxFuzzDelay+1))
		affected := int(int64(src.u64()))
		columns := make([]string, src.byte()%6)
		for i := range columns {
			columns[i] = src.str()
		}
		rows := make([]catalog.Row, src.byte()%8)
		for i := range rows {
			rows[i] = make(catalog.Row, src.byte()%5)
			for j := range rows[i] {
				switch v := &rows[i][j]; src.byte() % 4 {
				case 0:
					*v = catalog.IntValue(int64(src.u64()))
				case 1:
					*v = catalog.FloatValue(math.Float64frombits(src.u64()))
				case 2:
					*v = catalog.TextValue(src.str())
				default:
					v.Type = catalog.Text + 1 // not a type: "<invalid>"
				}
			}
		}

		// What the handlers did before the codec: rows to strings, Encode.
		resp := QueryResponse{Columns: columns, Affected: affected, DelayMillis: float64(delay) / float64(time.Millisecond)}
		for _, row := range rows {
			out := make([]string, len(row))
			for i, v := range row {
				out[i] = v.String()
			}
			resp.Rows = append(resp.Rows, out)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(resp); err != nil {
			t.Fatal(err)
		}
		if got := encodeReply(columns, rows, affected, delay); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("from engine values:\n got %q\nwant %q", got, want.Bytes())
		}
		view, err := ScanQueryResponse(want.Bytes())
		if rect := rectangular(resp.Columns, resp.Rows); (err == nil) != rect {
			t.Fatalf("%q (rectangular: %v): ScanQueryResponse err %v", want.Bytes(), rect, err)
		}
		if err != nil {
			return
		}
		if _, again := reencode(t, want.Bytes()); !bytes.Equal(rewrite(&view), again) {
			t.Fatalf("copied from spans:\n got %q\nwant %q", rewrite(&view), again)
		}
	})
}

// TestAppendFloatMatchesJSON covers the delays a merged reply can carry
// that no time.Duration produces: exponent forms on both sides.
func TestAppendFloatMatchesJSON(t *testing.T) {
	for _, f := range []float64{0, 1, 0.000001, 0.0000009, 1e-7, 1.5e-9, 1e-10, 1e20, 1e21, 1.5e22, 1e100, -1e-7, 6.833333, 10000, math.MaxFloat64, math.SmallestNonzeroFloat64} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendFloat(nil, f); !bytes.Equal(got, want) {
			t.Errorf("appendFloat(%v) = %s, want %s", f, got, want)
		}
	}
}

// FuzzScanQueryResponse: the reply scanner accepts exactly the
// rectangular replies that are spelled the way the encoder spells them,
// reads out of one what json.Unmarshal does, and copying its rows writes
// what decoding and re-encoding it writes — the body itself, unless a
// cell spells \ufffd.
func FuzzScanQueryResponse(f *testing.F) {
	for _, seed := range []string{
		`{"affected":0,"delay_millis":0}`,
		`{"affected":-3,"delay_millis":1e-7}`,
		`{"affected":0,"delay_millis":-0}`,
		`{"columns":["id","v"],"affected":0,"delay_millis":1.5}`,
		`{"columns":["id","v"],"rows":[["1","one"],["2","t\"w\\o"]],"affected":0,"delay_millis":6.833333}`,
		`{"columns":["\u003ccount(*)\u003e"],"rows":[["\u0026 \u2028 \u001f \b\n é 日本 �"]],"affected":0,"delay_millis":10000}`,
		`{"columns":["a"],"rows":[["\ufffd"],["\\ufffd"],["x"]],"affected":0,"delay_millis":1e+21}`,
		`{"rows":[[],[]],"affected":7,"delay_millis":0.000001}`,
		// Valid JSON, another spelling: every one is rejected.
		`{"columns":["a"],"rows":[["\/"]],"affected":0,"delay_millis":0}`,
		`{"columns":["a"],"rows":[["\u0041"]],"affected":0,"delay_millis":0}`,
		`{"columns":["a"],"rows":[["\u003C"]],"affected":0,"delay_millis":0}`,
		`{"columns":["a"],"rows":[["<"]],"affected":0,"delay_millis":0}`,
		`{"columns":["a"],"rows":[["x"], ["y"]],"affected":0,"delay_millis":0}`,
		`{"columns":["a"],"rows":[["x","y"]],"affected":0,"delay_millis":0}`,
		`{"columns":["a"],"rows":[null],"affected":0,"delay_millis":0}`,
		`{"rows":[["x"]],"columns":["a"],"affected":0,"delay_millis":0}`,
		`{"columns":[],"affected":0,"delay_millis":0}`,
		`{"affected":01,"delay_millis":0}`,
		`{"affected":0,"delay_millis":1.0}`,
		`{"affected":0,"delay_millis":0,"more":1}`,
	} {
		f.Add([]byte(seed + "\n"))
		f.Add([]byte(seed))
		f.Add([]byte(seed + "\n\n"))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		view, err := ScanQueryResponse(body)
		var resp QueryResponse
		jerr := json.Unmarshal(body, &resp)
		if err != nil {
			if jerr == nil && rectangular(resp.Columns, resp.Rows) {
				if _, again := reencode(t, body); bytes.Equal(again, body) {
					t.Fatalf("%q: rejected, yet rectangular and what Encode writes", body)
				}
			}
			return
		}
		if jerr != nil {
			t.Fatalf("%q: accepted; json.Unmarshal: %v", body, jerr)
		}
		if !reflect.DeepEqual(view.Columns, resp.Columns) || view.Affected != resp.Affected ||
			math.Float64bits(view.DelayMillis) != math.Float64bits(resp.DelayMillis) || view.NumRows() != len(resp.Rows) {
			t.Fatalf("%q: scanned %+v, json.Unmarshal %+v", body, view, resp)
		}
		for i, want := range resp.Rows {
			row := view.Row(i)
			for j := range want {
				if got := string(row.Cell(j)); got != want[j] {
					t.Fatalf("%q: cell %d of row %d is %q, json.Unmarshal %q", body, j, i, got, want[j])
				}
			}
			if n := len(want); n > 0 && !bytes.Equal(row.DropLast(), NewRawRow(want[:n-1])) {
				t.Fatalf("%q: row %d without its last cell is %q", body, i, row.DropLast())
			}
		}
		_, again := reencode(t, body)
		if got := rewrite(&view); !bytes.Equal(got, again) {
			t.Fatalf("%q: copied from spans %q, re-encoded %q", body, got, again)
		}
		if !view.replaced && !bytes.Equal(again, body) {
			t.Fatalf("%q: accepted, yet re-encodes as %q", body, again)
		}
	})
}

// FuzzParseQueryRequest: the request decoder accepts exactly the bodies
// json.Unmarshal accepts and decodes them to the same value (the error
// text may differ), and what it decoded re-encodes as json.Marshal's
// bytes.
func FuzzParseQueryRequest(f *testing.F) {
	for _, seed := range []string{
		`{"sql":"SELECT * FROM items WHERE id = 1"}`,
		" {\t\"sql\" :\r\n\"SELECT 1\" } \n",
		`{"sql":"a \"quoted\" \\ \/ \b\f\n\r\t"}`,
		`{"sql":"SELECT v FROM t","pfilter":{"count":64,"include":[0,7,63]}}`,
		`{ "sql" : "x" , "pfilter" : { "count" : 4 , "include" : [ 1 , 3 ] } }`,
		`{"sql":"x","pfilter":{"count":4,"include":[]}}`,
		`{"sql":"x","pfilter":{"count":4,"include":null}}`,
		`{"sql":"x","pfilter":null}`,
		`{"sql":"x","pfilter":{"include":[1],"count":4}}`,
		`{"sql":"x","pfilter":{"count":04,"include":[1]}}`,
		`{"sql":"x","pfilter":{"count":-4,"include":[-1]}}`,
		`{"sql":"x","pfilter":{"count":4.0,"include":[1e2]}}`,
		`{"sql":"x","pfilter":{"count":9223372036854775808,"include":[1]}}`,
		`{"sql":"x","pfilter":{"count":999999999999999999,"include":[1]}}`,
		`{"sql":"x","pfilter":{"count":1,"include":[1,]}}`,
		`{"SQL":"case-folded key"}`,
		`{"sql":"first","sql":"second"}`,
		`{"sql":"x","other":{"nested":[1,2,{"a":null}]}}`,
		`{"other":1,"sql":"late"}`,
		"{\"sql\":\"\\u0041\\ud83d\\ude00 \\ud800 lone\"}",
		"{\"sql\":\"raw \xff invalid \xed\xa0\x80 utf-8\"}",
		"{\"sql\":\"é 日本 \u2028\"}",
		"{\"sql\":\"control \x01 byte\"}",
		"{\"sql\":\"tab\there\"}",
		`{"sql":"bad \' escape"}`,
		`{"sql":"cut \`,
		`{"sql":"unterminated`,
		`{"sql":"x"} trailing`,
		`{"sql":"x"}{"sql":"y"}`,
		`{"sql":null}`,
		`{"sql":1}`,
		`{"sql":""}`,
		`{}`,
		`[]`,
		`null`,
		``,
		`{`,
		`{"sql"`,
		`{"sql":`,
		`{"sql":"x",}`,
	} {
		f.Add([]byte(seed))
	}
	for _, q := range routerRequests() {
		f.Add(AppendQueryRequest(nil, q))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, gerr := ParseQueryRequest(body)
		var want QueryRequest
		werr := json.Unmarshal(body, &want)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("%q: ParseQueryRequest err %v, json.Unmarshal err %v", body, gerr, werr)
		}
		if gerr != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: decoded %+v (pfilter %+v), json.Unmarshal %+v (pfilter %+v)", body, got, got.PFilter, want, want.PFilter)
		}
		marshalled, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if again := AppendQueryRequest(nil, got); !bytes.Equal(again, marshalled) {
			t.Fatalf("AppendQueryRequest %q, json.Marshal %q", again, marshalled)
		}
	})
}

// TestFastPathTakesTheCommonShapes: the bodies clients and the router
// actually send are decoded by hand — were the fast path to reject them
// the fuzz target would still pass, through the fallback.
func TestFastPathTakesTheCommonShapes(t *testing.T) {
	for _, q := range []QueryRequest{
		{SQL: `SELECT * FROM items WHERE id = 42`},
		{SQL: "INSERT INTO items VALUES (1, 'a \"b\"\n\\ é')"},
		{SQL: `SELECT v FROM items`, PFilter: &PartitionFilter{Count: 64, Include: []int{0, 9, 63}}},
	} {
		for _, body := range [][]byte{AppendQueryRequest(nil, q), mustMarshalIndent(t, q)} {
			got, ok := parseQueryFast(body)
			if !ok || !reflect.DeepEqual(got, q) {
				t.Errorf("%s: fast path ok=%v, decoded %+v", body, ok, got)
			}
		}
	}
	if _, ok := parseQueryFast([]byte(`{"sql":"\u0041"}`)); ok {
		t.Error(`\u escape taken by the fast path`)
	}
}

// routerRequests are requests as the router renders them: the SQL of
// every kind of string the reply fuzz corpus holds, bare and under a
// partition filter.
func routerRequests() []QueryRequest {
	var out []QueryRequest
	for _, sql := range []string{
		`SELECT COUNT(*) FROM items WHERE id >= 5 AND id <= 104`,
		`SELECT v FROM items WHERE a<b&c ORDER BY id LIMIT 20`,
		`<b>&"q"\</b>`,
		"line\u2028sep\u2029 \b\f\n\r\t\x00\x01\x1f\x7f",
		"\xed\xa0\x80 lone surrogate, \xff\xfe invalid, \xc3 cut",
		"é 日本 \U0001F600 \ufffd /",
		strings.Repeat("x<", 100),
		"",
	} {
		out = append(out, QueryRequest{SQL: sql},
			QueryRequest{SQL: sql, PFilter: &PartitionFilter{Count: 64, Include: []int{0, 9, 63}}})
	}
	return out
}

// TestEveryRouterRequestParsesFast: whatever SQL a scatter leg carries,
// the body AppendQueryRequest renders is decoded by hand, to what
// json.Unmarshal makes of it — escapes, invalid UTF-8 and all. Were the
// fast path to decline one, the fuzz target would still pass, through the
// fallback, and every such leg would pay for encoding/json again.
func TestEveryRouterRequestParsesFast(t *testing.T) {
	for _, q := range routerRequests() {
		body := AppendQueryRequest(nil, q)
		var want QueryRequest
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if got, ok := parseQueryFast(body); !ok || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: fast path ok=%v, decoded %+v, json.Unmarshal %+v", body, ok, got, want)
		}
	}
	for _, body := range []string{`{"sql":"\u003C"}`, `{"sql":"\u0041"}`, `{"sql":"\ud83d\ude00"}`, `{"sql":"\u00e9"}`} {
		if _, ok := parseQueryFast([]byte(body)); ok {
			t.Errorf("%s: an escape no encoder of ours writes was taken by the fast path", body)
		}
	}
}

func mustMarshalIndent(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.MarshalIndent(v, "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestReadBodyPooledScratchNoAllocs: the front door reads a request
// into its pooled buffer without allocating, a node's and the router's.
func TestReadBodyPooledScratchNoAllocs(t *testing.T) {
	buf := bufPool.Get().(*[]byte)
	defer putBuf(buf)
	payload := []byte(`{"sql":"SELECT v FROM items WHERE id = 1"}`)
	rd := bytes.NewReader(nil)
	allocs := testing.AllocsPerRun(200, func() {
		rd.Reset(payload)
		body, err := readBody(rd, (*buf)[:0])
		if err != nil {
			panic(err)
		}
		*buf = body
	})
	if allocs != 0 {
		t.Fatalf("readBody allocates %.1f objects per pooled request, want 0", allocs)
	}
}

// TestLargeBuffersAreNotPooled: a reply past maxPooledBuf must not park
// its megabytes in the pool.
func TestLargeBuffersAreNotPooled(t *testing.T) {
	big := make([]byte, 0, maxPooledBuf+1)
	putBuf(&big)
	if cap(big) != maxPooledBuf+1 || len(big) != 0 {
		t.Fatal("putBuf touched a buffer it should have dropped")
	}
	for i := 0; i < 64; i++ {
		if b := bufPool.Get().(*[]byte); cap(*b) > maxPooledBuf {
			t.Fatalf("pool handed out a %d-byte buffer", cap(*b))
		}
	}
}

// TestReplyAllocationsDoNotGrowWithRows: a /query reply is written from
// the pages as the statement reads them, so a SELECT returning 1,000 rows
// allocates about what one returning 10 does — a few more doublings of
// its key list and buffer, never an object per row. Writing the rows out
// of values cost two allocations a row (a projected row and its string).
// The policy is uncapped: a capped rank index moves its horizon as tuples
// are charged, which allocates with the tuples, not with the reply.
func TestReplyAllocationsDoNotGrowWithRows(t *testing.T) {
	h, shield := testHandler(t, core.Config{N: 1000, Alpha: 1, Beta: 1})
	var sb strings.Builder
	sb.WriteString("INSERT INTO items VALUES ")
	for i := 10; i < 1010; i++ {
		if i > 10 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, 'value-%d <&> é')", i, i)
	}
	if _, err := shield.DB().Exec(sb.String()); err != nil {
		t.Fatal(err)
	}
	allocs := func(rows int) float64 {
		body := AppendQueryRequest(nil, QueryRequest{SQL: fmt.Sprintf(`SELECT * FROM items WHERE id >= 10 AND id < %d`, 10+rows)})
		var rd bytes.Reader
		req := httptest.NewRequest(http.MethodPost, "/query", nil)
		req.Header.Set("X-Identity", "reader")
		req.Body = io.NopCloser(&rd)
		rec := httptest.NewRecorder()
		n := testing.AllocsPerRun(50, func() {
			rd.Reset(body)
			rec.Body.Reset()
			h.ServeHTTP(rec, req)
		})
		var out QueryResponse
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &out) != nil || len(out.Rows) != rows {
			t.Fatalf("%d rows: HTTP %d, body %.200q", rows, rec.Code, rec.Body)
		}
		return n
	}
	few, many := allocs(10), allocs(1000)
	t.Logf("allocations per reply: %.0f for 10 rows, %.0f for 1,000", few, many)
	if many-few >= 50 {
		t.Fatalf("a 10-row reply allocates %.0f times, a 1,000-row one %.0f", few, many)
	}
}

// TestConcurrentRepliesKeepTheirOwnBytes drives the handler from several
// goroutines at once (run under -race): a pooled buffer handed to two
// requests would show as a race or as one request's row in another's
// reply.
func TestConcurrentRepliesKeepTheirOwnBytes(t *testing.T) {
	ts, _ := testServer(t, core.Config{Alpha: 1, Beta: 1, Cap: time.Millisecond})
	h := ts.Config.Handler
	values := []string{"", "one", "two", "three"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := 1 + (g+i)%3
				body := AppendQueryRequest(nil, QueryRequest{SQL: fmt.Sprintf(`SELECT * FROM items WHERE id = %d`, k)})
				req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
				req.Header.Set("X-Identity", fmt.Sprintf("g%d", g))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				var out QueryResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || rec.Code != http.StatusOK ||
					len(out.Rows) != 1 || out.Rows[0][0] != strconv.Itoa(k) || out.Rows[0][1] != values[k] {
					t.Errorf("goroutine %d, id %d: HTTP %d, body %q, decode %v", g, k, rec.Code, rec.Body, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
