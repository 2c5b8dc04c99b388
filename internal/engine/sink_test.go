package engine

import (
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
)

// The two sinks of the one SELECT path. Every SELECT hands its rows to
// the Prepared's rowWriter, which keeps them as values (ExecIn) or
// writes them through a RowEncoder (ExecInto); the tests here check
// that a writer shared by both, and by the statements a pooled Prepared
// runs one after another, carries nothing from one statement into the
// next, and that the values sink still costs what it did.

// loadSinkTable creates sink(id, x, s) with ids 0..n-1. A row's x is
// always id plus a fraction and its s always starts "r<id>-", whatever
// sinkUpdate later writes.
func loadSinkTable(t *testing.T, db *Database, n int) {
	t.Helper()
	mustExec(t, db, `CREATE TABLE sink (id INT PRIMARY KEY, x FLOAT, s TEXT)`)
	var stmt strings.Builder
	for id := 0; id < n; id++ {
		if stmt.Len() == 0 {
			stmt.WriteString(`INSERT INTO sink VALUES `)
		} else {
			stmt.WriteString(", ")
		}
		fmt.Fprintf(&stmt, `(%d, %d.5, 'r%03d-0')`, id, id, id)
		if (id+1)%100 == 0 || id == n-1 {
			mustExec(t, db, stmt.String())
			stmt.Reset()
		}
	}
}

// sinkUpdate rewrites row id's x and s for generation gen, keeping the
// invariants loadSinkTable states.
func sinkUpdate(id, gen int) string {
	return fmt.Sprintf(`UPDATE sink SET x = %d.%d, s = 'r%03d-%d' WHERE id = %d`, id, gen%10, id, gen, id)
}

// sinkShape is one statement shape over the keys [k, k+10): its SQL, a
// format of k and k+10, and the keys it must return or fold, in order:
// n of them from k+first, step apart.
type sinkShape struct {
	name           string
	format         string
	first, n, step int
}

func (sh sinkShape) sql(k int) string { return fmt.Sprintf(sh.format, k, k+10) }

func (sh sinkShape) keys(k int) []uint64 {
	out := make([]uint64, sh.n)
	for i := range out {
		out[i] = uint64(k + sh.first + i*sh.step)
	}
	return out
}

var sinkShapes = []sinkShape{
	{"point", `SELECT * FROM sink WHERE id = %[1]d`, 0, 1, 1},
	{"range", `SELECT * FROM sink WHERE id >= %[1]d AND id < %[2]d`, 0, 10, 1},
	{"order", `SELECT s, id FROM sink WHERE id >= %[1]d AND id < %[2]d ORDER BY x DESC LIMIT 3`, 9, 3, -1},
	{"count", `SELECT COUNT(*) FROM sink WHERE id >= %[1]d AND id < %[2]d`, 0, 10, 1},
	{"min", `SELECT MIN(s) FROM sink WHERE id >= %[1]d AND id < %[2]d`, 0, 10, 1},
}

var quotedCell = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

// bodyCells parses what textEncoder wrote after the "body\n" head: the
// column names and each row's cells.
func bodyCells(body []byte) (cols []string, rows [][]string, err error) {
	lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
	if len(lines) < 2 || lines[0] != "body" {
		return nil, nil, fmt.Errorf("body does not start with its caller's head:\n%s", body)
	}
	unquote := func(line string) []string {
		var out []string
		for _, q := range quotedCell.FindAllString(line, -1) {
			s, uerr := strconv.Unquote(q)
			if uerr != nil {
				err = uerr
			}
			out = append(out, s)
		}
		return out
	}
	cols = unquote(lines[1])
	for i, line := range lines[2:] {
		if !strings.HasPrefix(line, strconv.Itoa(i)+":") {
			return nil, nil, fmt.Errorf("row %d is numbered %q", i, line)
		}
		rows = append(rows, unquote(line))
	}
	return cols, rows, err
}

// checkSinkCells checks that cols and rows are what shape answers at k.
func checkSinkCells(shape sinkShape, k int, cols []string, rows [][]string) error {
	want := shape.keys(k)
	cell := func(r int, col string) string { return rows[r][slices.Index(cols, col)] }
	textOf := func(s string, id uint64) error {
		if !strings.HasPrefix(s, fmt.Sprintf("r%03d-", id)) {
			return fmt.Errorf("s = %q is not row %d's", s, id)
		}
		return nil
	}
	switch shape.name {
	case "count":
		if len(rows) != 1 || rows[0][0] != strconv.Itoa(len(want)) {
			return fmt.Errorf("rows %q, want [[%d]]", rows, len(want))
		}
		return nil
	case "min":
		if len(rows) != 1 {
			return fmt.Errorf("rows %q, want one", rows)
		}
		return textOf(rows[0][0], want[0])
	}
	if len(rows) != len(want) {
		return fmt.Errorf("%d rows %q, want %d", len(rows), rows, len(want))
	}
	for r, id := range want {
		if got := cell(r, "id"); got != strconv.FormatUint(id, 10) {
			return fmt.Errorf("row %d has id %s, want %d", r, got, id)
		}
		if err := textOf(cell(r, "s"), id); err != nil {
			return err
		}
		if slices.Contains(cols, "x") {
			x, err := strconv.ParseFloat(cell(r, "x"), 64)
			if err != nil || math.Floor(x) != float64(id) {
				return fmt.Errorf("x = %q is not row %d's", cell(r, "x"), id)
			}
		}
	}
	return nil
}

// runSinkShape runs shape at k through p's two sinks in turn — values,
// bytes, values — and checks each answer; each answer again once the
// next statement has run, starting with prev, the check of the answer
// before p's first (a Result must not share memory with the writer's
// later rows); and that the writer holds no reply between runs. It
// returns the check of its last answer.
func runSinkShape(p *Prepared, shape sinkShape, k int, prev func() error) (func() error, error) {
	for i := 0; i < 3; i++ {
		var res *Result
		var err error
		if i%2 == 0 {
			res, err = p.ExecIn(nil)
		} else {
			res, err = p.ExecInto(nil, textEncoder{}, []byte("body\n"))
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %v", shape.name, err)
		}
		if p.w.vals != nil || p.w.body != nil || p.w.enc != nil {
			return nil, fmt.Errorf("%s: the writer still holds a reply after the statement returned", shape.name)
		}
		if prev != nil {
			if err := prev(); err != nil {
				return nil, fmt.Errorf("%s: the previous answer changed under the next statement: %v", shape.name, err)
			}
		}
		check := func() error {
			body := res.Body
			if i%2 == 0 {
				if res.Body != nil || res.BodyRows != 0 {
					return fmt.Errorf("ExecIn left Body %q, BodyRows %d", res.Body, res.BodyRows)
				}
				body = renderValues(res)
			} else if res.Rows != nil {
				return fmt.Errorf("ExecInto left Rows %v", res.Rows)
			}
			cols, rows, err := bodyCells(body)
			if err != nil {
				return err
			}
			if i%2 == 1 && res.BodyRows != len(rows) {
				return fmt.Errorf("BodyRows %d, body holds %d", res.BodyRows, len(rows))
			}
			if !slices.Equal(cols, res.Columns) {
				return fmt.Errorf("body names columns %q, Result %q", cols, res.Columns)
			}
			if want := shape.keys(k); !slices.Equal(res.Keys, want) {
				return fmt.Errorf("keys %v, want %v", res.Keys, want)
			}
			return checkSinkCells(shape, k, cols, rows)
		}
		if err := check(); err != nil {
			return nil, fmt.Errorf("%s at %d, run %d: %v", shape.name, k, i, err)
		}
		prev = check
	}
	return prev, nil
}

func TestSinkReuse(t *testing.T) {
	const n = 200
	db := testDB(t, withScanWorkers(1))
	loadSinkTable(t, db, n)
	run := func(shape sinkShape, k int, prev func() error) (func() error, error) {
		p, err := db.Prepare(shape.sql(k))
		if err != nil {
			return nil, err
		}
		defer p.Release()
		return runSinkShape(p, shape, k, prev)
	}

	// In sequence: every shape, twice over, so each cached shape runs
	// once from the parse path and once from its plan.
	var prev func() error
	for round := 0; round < 2; round++ {
		for _, shape := range sinkShapes {
			for _, k := range []int{0, 7, n - 10} {
				var err error
				if prev, err = run(shape, k, prev); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	// Then from 8 goroutines, the pool handing each Prepared from one
	// to the next, while a writer rewrites the rows they read.
	markConcurrent(t, db)
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for gen := 1; ; gen++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := db.Exec(sinkUpdate((gen*37)%n, gen)); err != nil {
				t.Errorf("update: %v", err)
				return
			}
		}
	}()
	var readers sync.WaitGroup
	for g := 0; g < 8; g++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			var prev func() error
			for i := 0; i < 60; i++ {
				var err error
				prev, err = run(sinkShapes[rng.Intn(len(sinkShapes))], rng.Intn(n-10), prev)
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(g + 1))
	}
	readers.Wait()
	close(stop)
	writer.Wait()
}

// TestValuesPathAllocs pins what a SELECT kept as values costs through
// Database.Exec: the Result, its first keys, rows and values share one
// block, and the rowWriter the statement runs through is the pooled
// Prepared's. The ceilings are the counts of the engine that kept values
// on a path of their own.
func TestValuesPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race are not the program's")
	}
	db := testDB(t, withScanWorkers(1))
	loadSinkTable(t, db, 200)
	for _, c := range []struct {
		sql     string
		rows    int
		ceiling float64
	}{
		{`SELECT * FROM sink WHERE id = 7`, 1, 3},
		{`SELECT id FROM sink WHERE id = 7`, 1, 1},
		{`SELECT * FROM sink WHERE id >= 20 AND id < 30`, 10, 27},
		{`SELECT COUNT(*) FROM sink WHERE id < 50`, 1, 19},
	} {
		if res := mustExec(t, db, c.sql); len(res.Rows) != c.rows {
			t.Fatalf("%s: %d rows, want %d", c.sql, len(res.Rows), c.rows)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := db.Exec(c.sql); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > c.ceiling {
			t.Errorf("%s: %.1f allocs, ceiling %.0f", c.sql, allocs, c.ceiling)
		}
	}
}

// claimEncoder keeps the verbatim bit each cell was handed with, keyed
// by the cell's text.
type claimEncoder map[string]bool

func (claimEncoder) AppendColumns(dst []byte, cols []string) []byte { return dst }

func (c claimEncoder) AppendRow(dst []byte, i int, cells [][]byte, verbatim []bool) []byte {
	for j, cell := range cells {
		c[string(cell)] = verbatim[j]
	}
	return dst
}

// TestTextCellsClaimVerbatimOnlyWhenStamped: the encoder is told a TEXT
// cell is verbatim exactly when catalog.Verbatim holds for it (every
// table carries the layout stamp CREATE TABLE writes), and a number is
// always claimed.
func TestTextCellsClaimVerbatimOnlyWhenStamped(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE fresh (id INT PRIMARY KEY, s TEXT)`)
	cells := []string{"plain", "odd&", "<b>", "é 日本", "tab\there", "sep "}
	for i, c := range cells {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO fresh VALUES (%d, '%s')`, i+1, c))
	}
	for _, sql := range []string{
		`SELECT s, id FROM fresh WHERE id = 4`,
		`SELECT s, id FROM fresh WHERE id >= 1`,
		`SELECT s, id FROM fresh ORDER BY id DESC LIMIT 6`,
	} {
		p, err := db.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		got := claimEncoder{}
		if _, err := p.ExecInto(nil, got, nil); err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		p.Release()
		for _, c := range cells {
			claimed, ok := got[c]
			if want := catalog.Verbatim(c); ok && claimed != want {
				t.Errorf("%q: cell %q claimed %v, want %v", sql, c, claimed, want)
			}
		}
		if !got["4"] {
			t.Errorf("%q: INT cell not claimed verbatim", sql)
		}
	}
}
