package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// TestKeyOrderedLimitMatchesTheSort holds the key-order walk to the sort
// path it replaces. An ORDER BY id with a LIMIT streams the primary index
// and stops at the LIMIT; the same statement without the LIMIT still
// materializes and sorts every match, and its first rows are the answer.
// The statements cover every access path (randomWhere), both
// directions, projections with and without the key, LIMITs from 1 to
// past the table's end, partition sets, and keys deleted after the load.
func TestKeyOrderedLimitMatchesTheSort(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	db := testDB(t)
	keys := loadOracleTable(t, db, rng, "t", 700, 0)
	for i := 0; i < 60; i++ {
		mustExec(t, db, fmt.Sprintf(`DELETE FROM t WHERE id = %d`, keys[rng.Intn(len(keys))]))
	}
	projs := []string{"*", "id, s", "s", "grp, f"}
	for i := 0; i < 400; i++ {
		where := randomWhere(rng, keys)
		dir := []string{"", " DESC"}[rng.Intn(2)]
		limit := []int{1, 2, 5, 20, 64, 1000}[rng.Intn(6)]
		base := fmt.Sprintf(`SELECT %s FROM t%s ORDER BY id%s`, projs[rng.Intn(len(projs))], where, dir)
		sql := fmt.Sprintf(`%s LIMIT %d`, base, limit)
		var parts *PartitionSet
		keep := func(uint64) bool { return true }
		if rng.Intn(2) == 0 {
			parts, keep = randomSet(t, rng)
		}
		got := execIn(t, db, sql, parts)
		sorted := execIn(t, db, base, parts)
		wantRows, wantKeys := bruteFilter(sorted, keep, limit)
		if !slices.Equal(got.Keys, wantKeys) || !reflect.DeepEqual(got.Rows, wantRows) && len(wantRows) > 0 {
			t.Fatalf("%q (parts %v): streamed keys %v rows %v; the sort path's first %d: keys %v rows %v",
				sql, parts, got.Keys, got.Rows, limit, wantKeys, wantRows)
		}
		if len(got.Rows) != len(wantRows) || !slices.Equal(got.Columns, sorted.Columns) {
			t.Fatalf("%q: %d rows, columns %q; the sort path: %d rows, columns %q", sql, len(got.Rows), got.Columns, len(wantRows), sorted.Columns)
		}
	}
}

// TestKeyOrderedLimitReadsOneRow: ORDER BY id LIMIT 1 over a 20,000-row
// table reads one row from the pool, whichever end it starts from and
// whether or not the range is bounded. The pool counts one hit or miss
// per row an index path reads.
func TestKeyOrderedLimitReadsOneRow(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE wide (id INT PRIMARY KEY, grp INT, pad TEXT)`)
	for lo := 0; lo < 20000; lo += 500 {
		sql := `INSERT INTO wide VALUES `
		for i := lo; i < lo+500; i++ {
			if i > lo {
				sql += ", "
			}
			sql += fmt.Sprintf(`(%d, %d, 'row-%d')`, i, i%7, i)
		}
		mustExec(t, db, sql)
	}
	for _, c := range []struct {
		sql  string
		want int64
	}{
		{`SELECT * FROM wide ORDER BY id LIMIT 1`, 0},
		{`SELECT * FROM wide ORDER BY id DESC LIMIT 1`, 19999},
		{`SELECT pad FROM wide WHERE id >= 7000 ORDER BY id LIMIT 1`, 7000},
		{`SELECT * FROM wide WHERE id BETWEEN 100 AND 19099 ORDER BY id DESC LIMIT 1`, 19099},
	} {
		h0, m0, _ := db.PoolStats()
		res := mustExec(t, db, c.sql)
		h1, m1, _ := db.PoolStats()
		if len(res.Keys) != 1 || int64(res.Keys[0]) != c.want {
			t.Fatalf("%s: keys %v, want [%d]", c.sql, res.Keys, c.want)
		}
		if reads := h1 - h0 + m1 - m0; reads != 1 {
			t.Errorf("%s: read %d rows from the pool, want 1", c.sql, reads)
		}
	}
}

// TestNarrowChargeListsEveryCandidateRead: with the narrow charge on, a
// SELECT whose key conjuncts and partition set admit at most the bound's
// candidates is charged every candidate it read (Prepared.Examined), and
// one with more is charged its Keys.
func TestNarrowChargeListsEveryCandidateRead(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE items (id INT PRIMARY KEY, v INT)`)
	sql := `INSERT INTO items VALUES `
	for i := 0; i < 200; i++ {
		if i > 0 {
			sql += ", "
		}
		sql += fmt.Sprintf(`(%d, %d)`, i, i%10)
	}
	mustExec(t, db, sql)
	span := func(lo, hi int) []uint64 {
		var out []uint64
		for k := lo; k <= hi; k++ {
			out = append(out, uint64(k))
		}
		return out
	}
	half, err := NewPartitionSet(2, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	inHalf := func(ks []uint64) []uint64 {
		var out []uint64
		for _, k := range ks {
			if half.contains(int64(k)) {
				out = append(out, k)
			}
		}
		return out
	}
	for _, c := range []struct {
		sql   string
		parts *PartitionSet
		want  []uint64 // nil: Examined is nil, the charge is Keys
	}{
		// Rows a conjunct on v rejects are read, and charged.
		{`SELECT COUNT(*) FROM items WHERE id BETWEEN 10 AND 19 AND v = 3`, nil, span(10, 19)},
		{`SELECT * FROM items WHERE id = 5 AND v > 7`, nil, span(5, 5)},
		// Rows sorted past the LIMIT are read, and charged.
		{`SELECT id FROM items WHERE id BETWEEN 20 AND 29 ORDER BY v DESC LIMIT 2`, nil, span(20, 29)},
		// The key-order walk reads up to its LIMIT's last match: 30..35,
		// of which 33 and 34 match.
		{`SELECT * FROM items WHERE id >= 30 AND id <= 80 AND v >= 3 AND v <= 4 ORDER BY id LIMIT 2`, nil, span(30, 34)},
		// Nothing read and not returned: the charge is Keys.
		{`SELECT * FROM items WHERE id BETWEEN 10 AND 19`, nil, nil},
		{`SELECT * FROM items WHERE id >= 10 ORDER BY id LIMIT 3`, nil, nil},
		// Wide: 100 candidates.
		{`SELECT COUNT(*) FROM items WHERE id BETWEEN 0 AND 99 AND v = 3`, nil, nil},
		// The partition set narrows 100 candidates to about 50.
		{`SELECT COUNT(*) FROM items WHERE id BETWEEN 0 AND 99 AND v = 3`, half, inHalf(span(0, 99))},
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
		examined := p.Examined()
		got := slices.Clone(examined)
		slices.Sort(got)
		if c.want == nil && examined != nil || !slices.Equal(got, c.want) {
			t.Errorf("%s (parts %v): Examined %v, want %v (keys %v)", c.sql, c.parts != nil, examined, c.want, res.Keys)
		}
		p.Release()
	}
}
