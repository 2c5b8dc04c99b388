package engine

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/sqlmini"
	"repro/internal/storage"
)

// TestKeyConjunctsDecidedOnTheEntry: a point whose key bounds exclude it
// plans as impossible, so no row is read to reject it. The index paths
// decide the key's conjuncts on the entry and never recheck them on the
// row; a point planned past its bounds would return the row, and under
// the narrow charge a row read and rejected is charged. Each shape, in
// every statement form, returns no row and charges no key.
func TestKeyConjunctsDecidedOnTheEntry(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE items (id INT PRIMARY KEY, v INT)`)
	var vals []string
	for i := 0; i < 10; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %d)", i, i*3))
	}
	mustExec(t, db, `INSERT INTO items VALUES `+strings.Join(vals, ", "))
	every, err := NewPartitionSet(2, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, where := range []string{
		`id = 2 AND id > 3`,
		`id = 2 AND id >= 3`,
		`id = 5 AND id BETWEEN 1 AND 4`,
		`id > 3 AND id = 2`,
		`id > 9223372036854775807`,
		`id = 9223372036854775807 AND id > 9223372036854775807`,
		// A conjunct on another column: the narrow charge records a row
		// read and rejected, and a point planned past its bounds was one.
		`id = 2 AND id > 3 AND v >= 0`,
	} {
		for _, c := range []struct {
			sql   string
			parts *PartitionSet
		}{
			{`SELECT * FROM items WHERE ` + where, nil},
			{`SELECT id FROM items WHERE ` + where, nil},
			{`SELECT COUNT(*) FROM items WHERE ` + where, nil},
			{`SELECT * FROM items WHERE ` + where, every},
			{`SELECT * FROM items WHERE ` + where + ` ORDER BY id LIMIT 3`, nil},
		} {
			p, err := db.Prepare(c.sql)
			if err != nil {
				t.Fatal(err)
			}
			p.ExamineUpTo(64)
			res, err := p.ExecIn(c.parts)
			if err != nil {
				t.Fatalf("%s: %v", c.sql, err)
			}
			rows := len(res.Rows)
			if strings.Contains(c.sql, "COUNT") {
				if rows != 1 || res.Rows[0][0].Int != 0 {
					t.Errorf("%s: %v, want a count of 0", c.sql, res.Rows)
				}
				rows = 0
			}
			if rows != 0 || len(res.Keys) != 0 || len(p.Examined()) != 0 {
				t.Errorf("%s (parts %v): rows %v, keys %v, examined %v; want none",
					c.sql, c.parts != nil, res.Rows, res.Keys, p.Examined())
			}
			p.Release()
		}
	}
}

// keyConjRows bounds FuzzKeyConjuncts' table: keys 0..39 but those ≡ 3 mod
// 5, inserted in key order, so page order is key order.
const keyConjRows = 40

// decodeKeyConjuncts turns fuzz input into 1-4 conjuncts on the key, an
// optional partition set and a statement shape (0-5). Missing bytes read
// as zero.
func decodeKeyConjuncts(data []byte) (where string, parts *PartitionSet, shape int) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	lit := func() string {
		kind, b := next(), next()
		v := int(b)%48 - 3
		switch kind % 8 {
		case 5:
			return fmt.Sprintf("%d.5", v)
		case 6:
			return fmt.Sprintf("%d.25", v)
		case 7:
			if b%2 == 0 {
				return fmt.Sprint(int64(math.MaxInt64))
			}
			return fmt.Sprint(-int64(math.MaxInt64))
		}
		return fmt.Sprint(v)
	}
	n := 1 + int(next()%4)
	var conj []string
	for range n {
		op := next() % 7
		if op == 6 {
			conj = append(conj, fmt.Sprintf("id BETWEEN %s AND %s", lit(), lit()))
			continue
		}
		conj = append(conj, fmt.Sprintf("id %s %s", []string{"=", "!=", "<", "<=", ">", ">="}[op], lit()))
	}
	if p := next(); p%3 != 0 {
		count := 2 + int(p%2)
		bits := next()
		var in []int
		for i := range count {
			if bits&(1<<i) != 0 {
				in = append(in, i)
			}
		}
		if len(in) == 0 {
			in = []int{0}
		}
		parts, _ = NewPartitionSet(count, in)
	}
	return strings.Join(conj, " AND "), parts, int(next() % 6)
}

// FuzzKeyConjuncts: the primary-key index paths (point, range, key-order
// walk, the narrow candidate list), which decide the key's conjuncts on
// the index entry, answer every conjunction of key comparisons, with or
// without a partition set, as a heap scan that decides every conjunct on
// every row (matchesBound) does: the same rows, Keys and narrow charge
// (Prepared.Examined). The seed corpus runs in go test.
func FuzzKeyConjuncts(f *testing.F) {
	// A literal is a kind byte (5, 6: non-integer; 7: ±MaxInt64) and a
	// value byte b, the integer b-3.
	for _, seed := range [][]byte{
		{1, 0, 0, 5, 4, 0, 6, 0, 0},                        // id = 2 AND id > 3
		{1, 0, 0, 5, 5, 0, 6, 0, 1},                        // id = 2 AND id >= 3, SELECT id
		{1, 0, 0, 8, 6, 0, 4, 0, 7, 1, 7, 3},               // id = 5 AND id BETWEEN 1 AND 4, all of 3 partitions, ORDER BY v
		{0, 4, 7, 0, 0, 2},                                 // id > MaxInt64, COUNT
		{0, 2, 7, 1, 0, 0},                                 // id < -MaxInt64
		{2, 5, 0, 5, 2, 0, 33, 1, 0, 12, 1, 5, 4},          // a range, a !=, partitions {0, 2} of 3, ORDER BY id
		{1, 3, 5, 23, 4, 6, 5, 0, 3},                       // non-integer bounds, ORDER BY v
		{3, 1, 0, 15, 1, 5, 7, 0, 0, 16, 5, 0, 9, 2, 3, 5}, // four conjuncts, ORDER BY id DESC
		{0, 6, 0, 43, 0, 6, 0, 5},                          // BETWEEN 40 AND 3
		{2, 5, 0, 40, 3, 0, 13, 1, 0, 13, 4, 2, 0},         // partition {1} of 2
	} {
		f.Add(seed)
	}
	db, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { db.Close() })
	if _, err := db.Exec(`CREATE TABLE items (id INT PRIMARY KEY, v INT)`); err != nil {
		f.Fatal(err)
	}
	var vals []string
	for k := 0; k < keyConjRows; k++ {
		if k%5 != 3 {
			vals = append(vals, fmt.Sprintf("(%d, %d)", k, k*7%11))
		}
	}
	if _, err := db.Exec(`INSERT INTO items VALUES ` + strings.Join(vals, ", ")); err != nil {
		f.Fatal(err)
	}
	tbl, err := db.getTable("items")
	if err != nil {
		f.Fatal(err)
	}
	const narrow = 8
	f.Fuzz(func(t *testing.T, data []byte) {
		where, parts, shape := decodeKeyConjuncts(data)
		stmt, err := sqlmini.Parse(`SELECT * FROM items WHERE ` + where)
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		conj, err := resolveWhere(tbl.schema, stmt.(*sqlmini.Select).Where, parts)
		if err != nil {
			t.Fatal(err)
		}
		// The reference: every row of the heap, every conjunct decided on
		// it, in page (here key) order.
		var match []catalog.Row
		tbl.mu.RLock()
		err = db.fullScan(tbl, conj, nil, func(_ storage.RID, row catalog.Row, _ []byte) (bool, error) {
			match = append(match, slices.Clone(row))
			return true, nil
		})
		tbl.mu.RUnlock()
		if err != nil {
			t.Fatal(err)
		}
		keysOf := func(rows []catalog.Row) []uint64 {
			var out []uint64
			for _, r := range rows {
				out = append(out, uint64(r[0].Int))
			}
			return out
		}
		ids := func(rows []catalog.Row) []catalog.Row {
			var out []catalog.Row
			for _, r := range rows {
				out = append(out, r[:1])
			}
			return out
		}
		var sql string
		var wantRows []catalog.Row
		wantKeys := keysOf(match)
		var wantExamined []uint64
		switch shape {
		case 0:
			sql, wantRows = `SELECT * FROM items WHERE `+where, match
		case 1:
			sql, wantRows = `SELECT id FROM items WHERE `+where, ids(match)
		case 2:
			sql = `SELECT COUNT(*) FROM items WHERE ` + where
			wantRows = []catalog.Row{{catalog.IntValue(int64(len(match)))}}
		case 3:
			sql = `SELECT * FROM items WHERE ` + where + ` ORDER BY v LIMIT 2`
			byV := slices.Clone(match)
			sort.SliceStable(byV, func(a, b int) bool { return byV[a][1].Int < byV[b][1].Int })
			wantRows = byV[:min(2, len(byV))]
			wantKeys = keysOf(wantRows)
			if len(match) <= narrow && len(match) > 2 {
				wantExamined = keysOf(match)
			}
		case 4:
			sql = `SELECT * FROM items WHERE ` + where + ` ORDER BY id LIMIT 3`
			wantRows = match[:min(3, len(match))]
			wantKeys = keysOf(wantRows)
		case 5:
			sql = `SELECT id FROM items WHERE ` + where + ` ORDER BY id DESC LIMIT 3`
			desc := slices.Clone(match)
			slices.Reverse(desc)
			wantRows = ids(desc[:min(3, len(desc))])
			wantKeys = keysOf(wantRows)
		}
		p, err := db.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Release()
		p.ExamineUpTo(narrow)
		res, err := p.ExecIn(parts)
		if err != nil {
			t.Fatalf("%s (parts %v): %v", sql, parts, err)
		}
		examined := slices.Clone(p.Examined())
		slices.Sort(examined)
		if fmt.Sprint(res.Rows) != fmt.Sprint(wantRows) || !slices.Equal(res.Keys, wantKeys) || !slices.Equal(examined, wantExamined) {
			t.Fatalf("%s (parts %v):\n index path: rows %v keys %v examined %v\n heap scan:  rows %v keys %v examined %v",
				sql, parts, res.Rows, res.Keys, examined, wantRows, wantKeys, wantExamined)
		}
	})
}
