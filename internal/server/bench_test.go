package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
)

// neverSleeps is the root package's benchClock: delays cost nothing, so
// the benchmark measures mechanism only.
type neverSleeps struct{}

func (neverSleeps) Now() time.Time                                      { return time.Unix(0, 0) }
func (neverSleeps) Sleep(time.Duration)                                 {}
func (neverSleeps) SleepCtx(ctx context.Context, _ time.Duration) error { return ctx.Err() }

// discard is a ResponseWriter that keeps nothing: the benchmark pays for
// producing the reply, not for a recorder's copy of it.
type discard struct{ h http.Header }

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) WriteHeader(int)             {}
func (d *discard) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkHandleQuery is the front door's own cost: the /query handler
// (mux, recovery, body read, decode, shield, encode) over the fixture of
// the root package's BenchmarkShieldQuery — the same 1,000 rows, config
// and point statements — so HandleQuery/point ÷ ShieldQuery is the
// HTTP/JSON wrapper's multiple of the call it wraps (scripts/bench.sh
// bounds it). The scans price the per-row encode.
func BenchmarkHandleQuery(b *testing.B) {
	db, err := engine.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	if _, err := db.Exec(`CREATE TABLE items (id INT PRIMARY KEY, v TEXT)`); err != nil {
		b.Fatal(err)
	}
	for lo := 0; lo < 1000; lo += 250 {
		var sb strings.Builder
		sb.WriteString("INSERT INTO items VALUES ")
		for i := lo; i < lo+250; i++ {
			if i > lo {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, 'value-%d')", i, i)
		}
		if _, err := db.Exec(sb.String()); err != nil {
			b.Fatal(err)
		}
	}
	shield, err := core.New(db, core.Config{N: 1000, Alpha: 1, Beta: 2, Cap: 10 * time.Second, Clock: neverSleeps{}})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := New(shield)
	if err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()

	for _, bc := range []struct {
		name string
		sql  func(i int) string
	}{
		{"point", func(i int) string { return fmt.Sprintf(`SELECT * FROM items WHERE id = %d`, i%1000) }},
		{"scan100", func(i int) string {
			return fmt.Sprintf(`SELECT * FROM items WHERE id BETWEEN %d AND %d`, i%900, i%900+99)
		}},
		{"scan1000", func(int) string { return `SELECT * FROM items` }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			bodies := make([][]byte, 512)
			for i := range bodies {
				bodies[i] = AppendQueryRequest(nil, QueryRequest{SQL: bc.sql(i)})
			}
			// One request, re-armed per iteration: what is counted is the
			// handler's work, not httptest.NewRequest's.
			var rd bytes.Reader
			req := httptest.NewRequest(http.MethodPost, "/query", nil)
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set("X-Identity", "bench")
			req.Body = io.NopCloser(&rd)
			w := &discard{h: make(http.Header)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rd.Reset(bodies[i%len(bodies)])
				h.ServeHTTP(w, req)
			}
		})
	}
}

// BenchmarkReplyRow is one 180-byte TEXT cell through
// replyEncoder.AppendRow, the same plain text both ways: claimed verbatim,
// as a stamped record's cell is, it is copied between its quotes; not
// claimed (escaped), appendString reads it byte by byte first. The
// difference is the check a cell's verbatim bit saves on every read
// (scripts/bench.sh holds verbatim to a quarter of escaped).
func BenchmarkReplyRow(b *testing.B) {
	cells := [][]byte{[]byte(strings.Repeat("plain text, ", 15))}
	if len(cells[0]) != 180 {
		b.Fatalf("cell is %d bytes", len(cells[0]))
	}
	for _, bc := range []struct {
		name     string
		verbatim bool
	}{{"verbatim", true}, {"escaped", false}} {
		b.Run(bc.name, func(b *testing.B) {
			verbatim := []bool{bc.verbatim}
			dst := make([]byte, 0, 512)
			for i := 0; i < b.N; i++ {
				dst = replyEncoder{}.AppendRow(dst[:0], 1, cells, verbatim)
			}
		})
	}
}
