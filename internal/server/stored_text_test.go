package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/vclock"
)

// storedShard is a shard over the data directory dir, behind Handler().
type storedShard struct {
	db *engine.Database
	h  http.Handler
}

func openStoredShard(t testing.TB, dir string) *storedShard {
	t.Helper()
	db, err := engine.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	shield, err := core.New(db, core.Config{N: 1000, Alpha: 1, Beta: 1, Cap: time.Millisecond,
		Clock: vclock.NewSimulated(time.Date(2004, 8, 1, 0, 0, 0, 0, time.UTC))})
	if err != nil {
		db.Close()
		t.Fatal(err)
	}
	srv, err := New(shield)
	if err != nil {
		db.Close()
		t.Fatal(err)
	}
	return &storedShard{db: db, h: srv.Handler()}
}

// exec runs a write on the engine itself, so a literal may hold bytes a
// JSON request body cannot carry (invalid UTF-8).
func (s *storedShard) exec(t testing.TB, sql string) {
	t.Helper()
	if _, err := s.db.Exec(sql); err != nil {
		t.Fatalf("%q: %v", sql, err)
	}
}

// post sends sql to /query and returns the 200's body.
func (s *storedShard) post(t testing.TB, sql string) []byte {
	t.Helper()
	body, err := json.Marshal(QueryRequest{SQL: sql})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Identity", "reader")
	rec := httptest.NewRecorder()
	s.h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("%q: HTTP %d %s", sql, rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes()
}

// check sends a SELECT and holds its reply to the bytes encoding/json's
// Encoder writes for columns and rows, with the delay the reply carries.
func (s *storedShard) check(t testing.TB, sql string, columns []string, rows [][]string) {
	t.Helper()
	got := s.post(t, sql)
	var resp QueryResponse
	if err := json.Unmarshal(got, &resp); err != nil {
		t.Fatalf("%q: %v: %q", sql, err, got)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(QueryResponse{Columns: columns, Rows: rows, DelayMillis: resp.DelayMillis}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("%q:\n got %q\nwant %q", sql, got, want.Bytes())
	}
}

// sqlText quotes s as a SQL string literal.
func sqlText(s string) string { return "'" + strings.ReplaceAll(s, "'", "''") + "'" }

// FuzzStoredTextReply: a TEXT cell read back through the front door is
// encoding/json's spelling of what was written, byte for byte, whether
// the cell was stamped verbatim or not. Each cell is INSERTed, UPDATEd to
// the other string and back, then read by point, range and ORDER BY …
// LIMIT.
func FuzzStoredTextReply(f *testing.F) {
	for _, c := range [][2]string{
		{"one", `<b>&"q"\</b>`},
		{"line\u2028sep\u2029 \b\f\n\r\t\x00\x1f\x7f", "<"},
		{"\xed\xa0\x80 lone surrogate, \xff\xfe invalid, \xc3 cut", "a&b"},
		{"é 日本 \U0001F600 \ufffd", ""},
		{strings.Repeat("x<", 100), strings.Repeat("plain ", 11)},
		{"it's", "\xff"},
	} {
		f.Add(c[0], c[1])
	}
	s := openStoredShard(f, f.TempDir())
	f.Cleanup(func() { s.db.Close() })
	s.exec(f, `CREATE TABLE st (id INT PRIMARY KEY, v TEXT, n INT, w TEXT)`)
	if schema, err := s.db.Schema("st"); err != nil || schema.Layout != catalog.LayoutVerbatim {
		f.Fatalf("table st: layout %d (%v), want %d", schema.Layout, err, catalog.LayoutVerbatim)
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		const table = "st"
		s.exec(t, `DELETE FROM `+table+` WHERE id >= 1`) // what an input before this one left
		s.exec(t, fmt.Sprintf(`INSERT INTO %s VALUES (1, %s, 10, %s), (2, 'plain', 20, %s), (3, %s, 30, 'x')`,
			table, sqlText(a), sqlText(b), sqlText(a), sqlText(b)))
		s.exec(t, fmt.Sprintf(`UPDATE %s SET v = %s, w = %s WHERE id = 1`, table, sqlText(b), sqlText(a)))
		s.exec(t, fmt.Sprintf(`UPDATE %s SET w = %s WHERE id = 2`, table, sqlText(b)))
		s.exec(t, fmt.Sprintf(`UPDATE %s SET v = %s, w = %s WHERE id = 1`, table, sqlText(a), sqlText(b)))
		s.exec(t, fmt.Sprintf(`UPDATE %s SET w = %s WHERE id = 2`, table, sqlText(a)))

		all := []string{"id", "v", "n", "w"}
		rows := [][]string{{"1", a, "10", b}, {"2", "plain", "20", a}, {"3", b, "30", "x"}}
		for i, row := range rows {
			s.check(t, fmt.Sprintf(`SELECT * FROM %s WHERE id = %d`, table, i+1), all, rows[i:i+1])
			s.check(t, fmt.Sprintf(`SELECT w, v FROM %s WHERE id = %d`, table, i+1), []string{"w", "v"},
				[][]string{{row[3], row[1]}})
		}
		s.check(t, `SELECT * FROM `+table+` WHERE id >= 1 AND id <= 3`, all, rows)
		s.check(t, `SELECT v, id FROM `+table+` WHERE id >= 2`, []string{"v", "id"},
			[][]string{{"plain", "2"}, {b, "3"}})
		s.check(t, `SELECT w, v, id FROM `+table+` ORDER BY n DESC LIMIT 2`, []string{"w", "v", "id"},
			[][]string{{"x", b, "3"}, {a, "plain", "2"}})
	})
}

// TestPreStampLayoutIsRefused: testdata/legacy_text is a data directory
// the engine wrote before tables carried a layout stamp (catalog.json has
// no "layout", every TEXT length is a plain uvarint), made by CREATE TABLE
// items (id INT PRIMARY KEY, v TEXT, f FLOAT, w TEXT), two INSERTs and
// Close. The engine reads one record layout, so it refuses to open the
// directory, naming the table, and leaves its files as they were.
func TestPreStampLayoutIsRefused(t *testing.T) {
	dir := t.TempDir()
	files := map[string][]byte{}
	for _, name := range []string{"catalog.json", "items.tbl"} {
		data, err := os.ReadFile(filepath.Join("testdata", "legacy_text", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
		files[name] = data
	}
	db, err := engine.Open(dir)
	if err == nil {
		db.Close()
		t.Fatal("a directory from before the layout stamp opened")
	}
	if msg := err.Error(); !strings.Contains(msg, `"items"`) || !strings.Contains(msg, "predates the record layout stamp") {
		t.Fatalf("refusal %q does not name the table and the stamp", msg)
	}
	for name, want := range files {
		if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s changed by the refused open (%v)", name, err)
		}
	}
}
