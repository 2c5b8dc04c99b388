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

// storedColumns is the schema of the fuzz tables; an unstamped one is
// written into catalog.json by hand, as a directory made before the
// layout stamp holds it.
const (
	storedColumns = `(id INT PRIMARY KEY, v TEXT, n INT, w TEXT)`
	legacyCatalog = `[{"table":"lt","columns":[{"name":"id","type":1},{"name":"v","type":3},` +
		`{"name":"n","type":1},{"name":"w","type":3}],"key":0}]`
)

// FuzzStoredTextReply: a TEXT cell read back through the front door is
// encoding/json's spelling of what was written, byte for byte, whether
// the cell was stamped verbatim or not and whether its table carries the
// layout stamp ("st") or predates it ("lt"). Each cell is INSERTed,
// UPDATEd to the other string and back, then read by point, range and
// ORDER BY … LIMIT.
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
	dir := f.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "catalog.json"), []byte(legacyCatalog), 0o644); err != nil {
		f.Fatal(err)
	}
	s := openStoredShard(f, dir)
	f.Cleanup(func() { s.db.Close() })
	s.exec(f, `CREATE TABLE st `+storedColumns)
	for table, want := range map[string]catalog.Layout{"st": catalog.LayoutVerbatim, "lt": catalog.LayoutLength} {
		if schema, err := s.db.Schema(table); err != nil || schema.Layout != want {
			f.Fatalf("table %s: layout %d (%v), want %d", table, schema.Layout, err, want)
		}
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		for _, table := range []string{"st", "lt"} {
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
		}
	})
}

// legacyRows is what testdata/legacy_text holds: a data directory the
// engine wrote before tables carried a layout stamp (catalog.json has no
// "layout", every TEXT length is a plain uvarint), made by CREATE TABLE
// items (id INT PRIMARY KEY, v TEXT, f FLOAT, w TEXT) and two INSERTs of
// these rows, then Close. It has cells of odd and even length, plain and
// escaped, of one and of two length bytes.
var legacyRows = [][]string{
	{"1", "one", "0.5", "abc"},
	{"2", "two2", "-2", ""},
	{"3", `<b>&"q"\</b>`, "3.25", "x"},
	{"4", "line\u2028sep\t\x01", "4", "é 日本"},
	{"5", "\xff\xfe bad", "5.5", "\xed\xa0\x80"},
	{"6", "padded to sixty-five bytes of plain ascii text, no escapes at all!", "6", "ok"},
	{"7", "a cell longer than one hundred and twenty-seven bytes so that its length uvarint takes two bytes in either layout, plain text, and a few more words to pass it", "7", "z"},
	{"8", "seven!!", "8", "ends with &"},
}

// TestLegacyTextLayoutOpens: a directory written before the layout stamp
// opens, answers as encoding/json spells its rows, takes INSERTs and
// UPDATEs into its unstamped table — which stays unstamped — and answers
// the same after a reopen, while a table created beside it is stamped.
func TestLegacyTextLayoutOpens(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"catalog.json", "items.tbl"} {
		data, err := os.ReadFile(filepath.Join("testdata", "legacy_text", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rows := append([][]string(nil), legacyRows...)
	all := []string{"id", "v", "f", "w"}
	checkAll := func(s *storedShard) {
		t.Helper()
		if schema, err := s.db.Schema("items"); err != nil || schema.Layout != catalog.LayoutLength {
			t.Fatalf("items: layout %d (%v), want the unstamped %d", schema.Layout, err, catalog.LayoutLength)
		}
		for i, row := range rows {
			id := row[0]
			s.check(t, `SELECT * FROM items WHERE id = `+id, all, rows[i:i+1])
			s.check(t, `SELECT w, v FROM items WHERE id = `+id, []string{"w", "v"}, [][]string{{row[3], row[1]}})
		}
		s.check(t, `SELECT * FROM items WHERE id >= 1 AND id <= 100`, all, rows)
		var byF [][]string
		for i := len(rows) - 1; i >= len(rows)-3; i-- {
			byF = append(byF, []string{rows[i][3], rows[i][0]})
		}
		s.check(t, `SELECT w, id FROM items ORDER BY f DESC LIMIT 3`, []string{"w", "id"}, byF)
	}

	s := openStoredShard(t, dir)
	checkAll(s)
	s.post(t, `INSERT INTO items VALUES (9, '<i>nine</i>', 9.5, 'nine'), (10, 'ten', 10.0, 'a"b')`)
	s.post(t, `UPDATE items SET v = 'odd &' WHERE id = 1`)
	s.post(t, `UPDATE items SET w = 'plain now' WHERE id = 3`)
	s.post(t, `UPDATE items SET v = 'seven!!', w = '<&>' WHERE id = 8`)
	rows[0] = []string{"1", "odd &", "0.5", "abc"}
	rows[2] = []string{"3", `<b>&"q"\</b>`, "3.25", "plain now"}
	rows[7] = []string{"8", "seven!!", "8", "<&>"}
	rows = append(rows, []string{"9", "<i>nine</i>", "9.5", "nine"}, []string{"10", "ten", "10", `a"b`})
	checkAll(s)
	s.post(t, `CREATE TABLE fresh (id INT PRIMARY KEY, v TEXT)`)
	if err := s.db.Close(); err != nil {
		t.Fatal(err)
	}

	s = openStoredShard(t, dir)
	defer s.db.Close()
	checkAll(s)
	if schema, err := s.db.Schema("fresh"); err != nil || schema.Layout != catalog.LayoutVerbatim {
		t.Fatalf("fresh: layout %d (%v), want %d", schema.Layout, err, catalog.LayoutVerbatim)
	}
	s.post(t, `INSERT INTO fresh VALUES (1, '<&>'), (2, 'plain')`)
	s.check(t, `SELECT v FROM fresh WHERE id >= 1`, []string{"v"}, [][]string{{"<&>"}, {"plain"}})
}
