package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/parthash"
)

// The oracle for the partition conjunct. A statement executed with a
// partition set must answer what the same statement answers without
// one, filtered and folded by brute force here: the reference never
// hands the engine a set, it runs the statement's WHERE unfiltered,
// drops the rows whose key hashes outside the set with its own map, and
// applies ORDER BY's cut, LIMIT and the five aggregates in this file.
// Rows, Keys (what the shield charges) and Affected are all compared.

// oracleCols is the one schema both fixture tables share.
const oracleCols = `(id INT PRIMARY KEY, grp INT, f FLOAT, s TEXT)`

// loadOracleTable fills name with n rows on random sparse keys (negative
// ones too). f is a multiple of 1/4 and grp a small int, so every SUM is
// exact in a float64 whatever order the parallel executor adds it in.
// It returns the keys, sorted.
func loadOracleTable(t *testing.T, db *Database, rng *rand.Rand, name string, n, pad int) []int64 {
	t.Helper()
	mustExec(t, db, `CREATE TABLE `+name+` `+oracleCols)
	mustExec(t, db, `CREATE INDEX `+name+`_grp ON `+name+` (grp)`)
	seen := make(map[int64]bool, n)
	keys := make([]int64, 0, n)
	var stmt strings.Builder
	for len(keys) < n {
		k := rng.Int63n(int64(20*n)) - int64(4*n)
		if seen[k] {
			continue
		}
		seen[k] = true
		keys = append(keys, k)
		if stmt.Len() == 0 {
			stmt.WriteString(`INSERT INTO ` + name + ` VALUES `)
		} else {
			stmt.WriteString(", ")
		}
		fmt.Fprintf(&stmt, `(%d, %d, %.2f, 's%d%s')`, k, rng.Intn(9), float64(rng.Intn(4000)-2000)/4,
			rng.Intn(500), strings.Repeat("x", pad))
		if len(keys)%100 == 0 || len(keys) == n {
			mustExec(t, db, stmt.String())
			stmt.Reset()
		}
	}
	slices.Sort(keys)
	return keys
}

// randomSet draws a partition set and the oracle's own reading of it.
func randomSet(t *testing.T, rng *rand.Rand) (*PartitionSet, func(key uint64) bool) {
	t.Helper()
	count := 1 + rng.Intn(12)
	var include []int
	for len(include) == 0 {
		for p := 0; p < count; p++ {
			if rng.Intn(2) == 0 {
				include = append(include, p)
			}
		}
	}
	rng.Shuffle(len(include), func(i, j int) { include[i], include[j] = include[j], include[i] })
	if rng.Intn(3) == 0 {
		include = append(include, include[0]) // a repeat names nothing new
	}
	ps, err := NewPartitionSet(count, include)
	if err != nil {
		t.Fatalf("NewPartitionSet(%d, %v): %v", count, include, err)
	}
	want := make(map[int]bool)
	for _, p := range include {
		want[p] = true
	}
	return ps, func(key uint64) bool { return want[parthash.Index(int64(key), count)] }
}

// randomWhere draws a WHERE clause (or none) over every access path:
// key point, key range, the secondary index on grp, a full scan, and
// conjunctions of them. The shapes repeat with fresh literals, which is
// what sends most executions down the plan cache's hit path.
func randomWhere(rng *rand.Rand, keys []int64) string {
	k := func() int64 {
		if rng.Intn(8) == 0 {
			return rng.Int63n(1000) - 500 // likely absent
		}
		return keys[rng.Intn(len(keys))]
	}
	lo, hi := k(), k()
	if lo > hi {
		lo, hi = hi, lo
	}
	switch rng.Intn(9) {
	case 0:
		return ""
	case 1:
		return fmt.Sprintf(" WHERE id = %d", k())
	case 2:
		return fmt.Sprintf(" WHERE id >= %d AND id < %d", lo, hi)
	case 3:
		return fmt.Sprintf(" WHERE id BETWEEN %d AND %d", lo, hi)
	case 4:
		return fmt.Sprintf(" WHERE grp = %d", rng.Intn(10))
	case 5:
		return fmt.Sprintf(" WHERE f > %d.5", rng.Intn(800)-400)
	case 6:
		return fmt.Sprintf(" WHERE s != 's%d' AND grp <= %d", rng.Intn(500), rng.Intn(9))
	case 7:
		return fmt.Sprintf(" WHERE id > %d AND grp = %d", lo, rng.Intn(9))
	default:
		return fmt.Sprintf(" WHERE id <= %d AND f < %d.25", hi, rng.Intn(800)-400)
	}
}

// execIn runs sql through Prepare, the path the shield takes. A SELECT
// runs a second time through ExecInto, the path the front door takes,
// which must write what the first returned: the same keys, and a body
// byte for byte the rows' values rendered the same way.
func execIn(t *testing.T, db *Database, sql string, parts *PartitionSet) *Result {
	t.Helper()
	p, err := db.Prepare(sql)
	if err != nil {
		t.Fatalf("Prepare(%q): %v", sql, err)
	}
	defer p.Release()
	res, err := p.ExecIn(parts)
	if err != nil {
		t.Fatalf("ExecIn(%q): %v", sql, err)
	}
	if n := db.PinnedFrames(); n != 0 {
		t.Fatalf("ExecIn(%q): %d frames left pinned", sql, n)
	}
	if p.Kind() == KindSelect {
		checkExecInto(t, db, sql, parts, res)
	}
	return res
}

// textEncoder renders a reply with every cell's text spelled out, so two
// bodies are equal only if every cell is. A cell claimed verbatim that
// catalog.Verbatim rejects is marked, which no values rendering is.
type textEncoder struct{}

func (textEncoder) AppendColumns(dst []byte, cols []string) []byte {
	return fmt.Appendf(dst, "%q\n", cols)
}

func (textEncoder) AppendRow(dst []byte, i int, cells [][]byte, verbatim []bool) []byte {
	dst = fmt.Appendf(dst, "%d:", i)
	for j := range cells {
		if verbatim[j] && !catalog.Verbatim(string(cells[j])) {
			dst = append(dst, " !verbatim"...)
		}
		dst = fmt.Appendf(dst, " %q", cells[j])
	}
	return append(dst, '\n')
}

// renderValues is what textEncoder writes for a result's values.
func renderValues(res *Result) []byte {
	var enc textEncoder
	dst := enc.AppendColumns([]byte("body\n"), res.Columns)
	for i, row := range res.Rows {
		cells := make([][]byte, len(row))
		for j, v := range row {
			cells[j] = v.AppendText(nil)
		}
		dst = enc.AppendRow(dst, i, cells, make([]bool, len(row)))
	}
	return dst
}

// checkExecInto runs the SELECT sql through ExecInto and compares what it
// wrote with want, the statement's ExecIn result.
func checkExecInto(t *testing.T, db *Database, sql string, parts *PartitionSet, want *Result) {
	t.Helper()
	p, err := db.Prepare(sql)
	if err != nil {
		t.Fatalf("Prepare(%q): %v", sql, err)
	}
	defer p.Release()
	got, err := p.ExecInto(parts, textEncoder{}, []byte("body\n"))
	if err != nil {
		t.Fatalf("ExecInto(%q): %v", sql, err)
	}
	if n := db.PinnedFrames(); n != 0 {
		t.Fatalf("ExecInto(%q): %d frames left pinned", sql, n)
	}
	if wantBody := renderValues(want); !bytes.Equal(got.Body, wantBody) || got.BodyRows != len(want.Rows) {
		t.Fatalf("ExecInto(%q) wrote %d rows:\n%.600s\nExecIn returned %d:\n%.600s", sql, got.BodyRows, got.Body, len(want.Rows), wantBody)
	}
	if got.Rows != nil || !slices.Equal(got.Keys, want.Keys) || !slices.Equal(got.Columns, want.Columns) {
		t.Fatalf("ExecInto(%q): rows %v, %d keys, columns %q; ExecIn: %d keys, columns %q", sql, got.Rows, len(got.Keys), got.Columns, len(want.Keys), want.Columns)
	}
}

// bruteFilter is the reference's filter: res's rows and keys, kept when
// keep says so, cut at limit (-1: no cut).
func bruteFilter(res *Result, keep func(uint64) bool, limit int) (rows []catalog.Row, keys []uint64) {
	for i, k := range res.Keys {
		if limit >= 0 && len(keys) >= limit {
			break
		}
		if keep(k) {
			rows = append(rows, res.Rows[i])
			keys = append(keys, k)
		}
	}
	return rows, keys
}

// bruteAggregate folds fn over column ci of rows the way the engine's
// contract words it: SUM and AVG in float64, MIN and MAX by
// Value.Compare, and the int 0 (AVG: the float 0) over no rows.
func bruteAggregate(t *testing.T, fn string, ci int, rows []catalog.Row) catalog.Value {
	t.Helper()
	if fn == "COUNT" {
		return catalog.IntValue(int64(len(rows)))
	}
	if len(rows) == 0 {
		if fn == "AVG" || fn == "SUM" {
			return catalog.FloatValue(0)
		}
		return catalog.IntValue(0)
	}
	var sum float64
	best := rows[0][ci]
	for _, r := range rows {
		v := r[ci]
		switch v.Type {
		case catalog.Int:
			sum += float64(v.Int)
		case catalog.Float:
			sum += v.Float
		}
		c, err := v.Compare(best)
		if err != nil {
			t.Fatal(err)
		}
		if fn == "MIN" && c < 0 || fn == "MAX" && c > 0 {
			best = v
		}
	}
	switch fn {
	case "SUM":
		return catalog.FloatValue(sum)
	case "AVG":
		return catalog.FloatValue(sum / float64(len(rows)))
	}
	return best
}

func sameRows(a, b []catalog.Row) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// checkSelect compares one random filtered SELECT with the reference.
func checkSelect(t *testing.T, db *Database, rng *rand.Rand, table string, keys []int64) {
	t.Helper()
	parts, keep := randomSet(t, rng)
	where := randomWhere(rng, keys)
	limit, limitSQL := -1, ""
	if rng.Intn(2) == 0 {
		limit = rng.Intn(40)
		if rng.Intn(6) == 0 {
			limit = 0
		}
		limitSQL = fmt.Sprintf(" LIMIT %d", limit)
	}

	if rng.Intn(3) == 0 {
		// Aggregates: the reference folds the unfiltered projection.
		cols := []string{"id", "grp", "f", "s"}
		var aggs []string
		var fns []string
		var cis []int
		for n := 1 + rng.Intn(3); len(aggs) < n; {
			fn := []string{"COUNT", "SUM", "AVG", "MIN", "MAX"}[rng.Intn(5)]
			ci := rng.Intn(4)
			if (fn == "SUM" || fn == "AVG") && ci == 3 {
				continue // no SUM over TEXT
			}
			arg := cols[ci]
			if fn == "COUNT" {
				arg = "*"
			}
			aggs, fns, cis = append(aggs, fn+"("+arg+")"), append(fns, fn), append(cis, ci)
		}
		sql := "SELECT " + strings.Join(aggs, ", ") + " FROM " + table + where + limitSQL
		got := execIn(t, db, sql, parts)
		rows, wantKeys := bruteFilter(execIn(t, db, "SELECT * FROM "+table+where, nil), keep, -1)
		var wantRows []catalog.Row
		if limit == 0 {
			wantKeys = nil
		} else {
			row := make(catalog.Row, len(fns))
			for i := range fns {
				row[i] = bruteAggregate(t, fns[i], cis[i], rows)
			}
			wantRows = []catalog.Row{row}
		}
		if !sameRows(got.Rows, wantRows) || !slices.Equal(got.Keys, wantKeys) {
			t.Fatalf("%s in %v:\n  rows %v\n  want %v\n  keys %d, want %d", sql, parts.in, got.Rows, wantRows, len(got.Keys), len(wantKeys))
		}
		return
	}

	proj := []string{"*", "id", "s, grp", "f"}[rng.Intn(4)]
	order := ""
	if rng.Intn(3) == 0 {
		order = " ORDER BY " + []string{"id", "grp", "f", "s"}[rng.Intn(4)]
		if rng.Intn(2) == 0 {
			order += " DESC"
		}
	}
	base := "SELECT " + proj + " FROM " + table + where + order
	got := execIn(t, db, base+limitSQL, parts)
	wantRows, wantKeys := bruteFilter(execIn(t, db, base, nil), keep, limit)
	if !sameRows(got.Rows, wantRows) || !slices.Equal(got.Keys, wantKeys) {
		t.Fatalf("%s in %v: %d rows, %d keys; want %d rows, %d keys\n  keys %.200v\n  want %.200v",
			base+limitSQL, parts.in, len(got.Rows), len(got.Keys), len(wantRows), len(wantKeys), fmt.Sprint(got.Keys), fmt.Sprint(wantKeys))
	}
}

// checkDelete runs one random filtered DELETE and returns the surviving
// keys: exactly the matching rows of the set are gone and reported.
func checkDelete(t *testing.T, db *Database, rng *rand.Rand, table string, keys []int64) []int64 {
	t.Helper()
	parts, keep := randomSet(t, rng)
	at := rng.Intn(len(keys))
	where := fmt.Sprintf(" WHERE id >= %d AND id <= %d", keys[at], keys[min(at+rng.Intn(12), len(keys)-1)])
	if rng.Intn(2) == 0 {
		where += fmt.Sprintf(" AND grp != %d", rng.Intn(9))
	}
	_, victims := bruteFilter(execIn(t, db, "SELECT id FROM "+table+where, nil), keep, -1)
	got := execIn(t, db, "DELETE FROM "+table+where, parts)
	gotKeys := slices.Clone(got.Keys)
	slices.Sort(gotKeys)
	slices.Sort(victims)
	if got.Affected != len(victims) || !slices.Equal(gotKeys, victims) {
		t.Fatalf("DELETE FROM %s%s in %v: affected %d, keys %v; want %v", table, where, parts.in, got.Affected, gotKeys, victims)
	}
	left := slices.DeleteFunc(slices.Clone(keys), func(k int64) bool {
		_, gone := slices.BinarySearch(victims, uint64(k))
		return gone
	})
	var have []int64
	for _, k := range execIn(t, db, "SELECT id FROM "+table+" ORDER BY id", nil).Keys {
		have = append(have, int64(k))
	}
	if !slices.Equal(have, left) {
		t.Fatalf("DELETE FROM %s%s in %v left %d rows, want %d", table, where, parts.in, len(have), len(left))
	}
	return left
}

// checkCover: disjoint sets covering [0,count) return the statement's
// unfiltered answer between them, no key twice.
func checkCover(t *testing.T, db *Database, rng *rand.Rand, table string, keys []int64) {
	t.Helper()
	count := 2 + rng.Intn(10)
	groups := make([][]int, 1+rng.Intn(count))
	for p := 0; p < count; p++ {
		g := rng.Intn(len(groups))
		groups[g] = append(groups[g], p)
	}
	sql := "SELECT id FROM " + table + randomWhere(rng, keys)
	seen := make(map[uint64]bool)
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		parts, err := NewPartitionSet(count, g)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range execIn(t, db, sql, parts).Keys {
			if seen[k] {
				t.Fatalf("%s: key %d answered by two sets of %v", sql, int64(k), groups)
			}
			seen[k] = true
		}
	}
	all := execIn(t, db, sql, nil).Keys
	if len(all) != len(seen) {
		t.Fatalf("%s: sets %v returned %d keys between them, the statement %d", sql, groups, len(seen), len(all))
	}
	for _, k := range all {
		if !seen[k] {
			t.Fatalf("%s: key %d in no set of %v", sql, int64(k), groups)
		}
	}
}

func TestPartitionSetOracle(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			db := testDB(t, withScanWorkers(4))
			small := loadOracleTable(t, db, rng, "small", 300, 0)
			wide := loadOracleTable(t, db, rng, "wide", 1500, 100)
			tbl, err := db.getTable("wide")
			if err != nil {
				t.Fatal(err)
			}
			if w := db.scanWorkersFor(tbl); w < 2 {
				t.Fatalf("wide spans %d pages: the parallel executor never runs", tbl.heap.NumPages())
			}
			for step := 0; step < 400; step++ {
				table, keys := "small", &small
				if step%4 == 3 {
					table, keys = "wide", &wide
				}
				switch r := rng.Intn(20); {
				case r == 0:
					*keys = checkDelete(t, db, rng, table, *keys)
				case r == 1:
					checkCover(t, db, rng, table, *keys)
				default:
					checkSelect(t, db, rng, table, *keys)
				}
			}
			if hits, _, _, _ := db.PlanCacheStats(); hits == 0 {
				t.Fatal("no statement took the cached-plan path")
			}
		})
	}
}

func TestPartitionSetRejected(t *testing.T) {
	for _, bad := range []struct {
		count   int
		include []int
	}{
		{0, []int{0}}, {-3, []int{0}}, {4, nil}, {4, []int{}}, {4, []int{4}}, {4, []int{-1}}, {4, []int{0, 9}},
	} {
		if ps, err := NewPartitionSet(bad.count, bad.include); err == nil {
			t.Errorf("NewPartitionSet(%d, %v) = %+v, want an error", bad.count, bad.include, ps)
		}
	}

	// A set is a restriction on rows read or deleted; no other statement
	// has a meaning for it.
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE items `+oracleCols)
	mustExec(t, db, `INSERT INTO items VALUES (1, 1, 1.0, 'a')`)
	all, err := NewPartitionSet(1, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		`INSERT INTO items VALUES (2, 2, 2.0, 'b')`,
		`UPDATE items SET grp = 5 WHERE id = 1`,
		`CREATE TABLE other (id INT PRIMARY KEY)`,
		`DROP TABLE items`,
	} {
		p, err := db.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.ExecIn(all); err == nil {
			t.Errorf("%s accepted a partition set", sql)
		}
		p.Release()
	}
	if res := mustExec(t, db, `SELECT id, grp FROM items`); len(res.Rows) != 1 || res.Rows[0][1].Int != 1 {
		t.Fatalf("a refused statement ran: %v", res.Rows)
	}
}

// TestLimitZero: LIMIT 0 returns no row and names no key — nothing for
// the shield to charge — on the parsed, cached-plan, ordered and
// aggregate shapes.
func TestLimitZero(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE items `+oracleCols)
	mustExec(t, db, `INSERT INTO items VALUES (1, 1, 1.0, 'a'), (2, 2, 2.0, 'b'), (3, 1, 3.0, 'c')`)
	for _, sql := range []string{
		`SELECT * FROM items LIMIT 0`,
		`SELECT * FROM items LIMIT 0`, // the same shape again: the cached plan
		`SELECT id FROM items WHERE id = 2 LIMIT 0`,
		`SELECT id FROM items WHERE grp = 1 ORDER BY f DESC LIMIT 0`,
		`SELECT COUNT(*) FROM items LIMIT 0`,
		`SELECT SUM(f), MIN(s) FROM items WHERE id >= 2 LIMIT 0`,
	} {
		res := mustExec(t, db, sql)
		if len(res.Rows) != 0 || len(res.Keys) != 0 || res.Columns == nil {
			t.Errorf("%s: rows %v, keys %v, columns %v; want no row, no key, the columns", sql, res.Rows, res.Keys, res.Columns)
		}
	}
	if hits, _, _, _ := db.PlanCacheStats(); hits == 0 {
		t.Fatal("the repeated shape missed the plan cache")
	}
	if _, err := db.Exec(`SELECT nope FROM items LIMIT 0`); err == nil {
		t.Fatal("LIMIT 0 hid an unknown column")
	}
	if res := mustExec(t, db, `SELECT COUNT(*) FROM items LIMIT 1`); len(res.Rows) != 1 || len(res.Keys) != 3 {
		t.Fatalf("aggregate LIMIT 1: rows %v, %d keys", res.Rows, len(res.Keys))
	}
}
