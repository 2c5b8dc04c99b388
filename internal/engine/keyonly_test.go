package engine

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/catalog"
)

// The heap oracle for key-only reads. A statement that reads nothing but
// the key answers from the primary index. The reference reads every row
// from the heap: the same WHERE run as SELECT * on a table with non-key
// columns, a full scan filtered here on a table that is nothing but its
// key (where SELECT * is key-only too). After each step of a seeded
// write stream every key-only shape is checked against the reference,
// filtered by the partition set and folded here. Rows and Keys (what the
// shield charges) are compared.

// keyOnlyShapes are the key-only statements: what goes between SELECT
// and FROM, and what follows the WHERE (%d: a random LIMIT).
var keyOnlyShapes = []struct{ sel, tail string }{
	{"COUNT(*)", ""},
	{"COUNT(id)", ""},
	{"MIN(id), MAX(id), SUM(id), AVG(id)", ""},
	{"id", ""},
	{"id", " ORDER BY id DESC"},
	{"id", " LIMIT %d"},
	{"id", " ORDER BY id DESC LIMIT %d"},
}

// koWhere draws a point or a range WHERE over keys (or a key nothing
// holds) and the oracle's own reading of it.
func koWhere(rng *rand.Rand, keys []int64) (string, func(int64) bool) {
	k := func() int64 {
		if len(keys) == 0 || rng.Intn(8) == 0 {
			return rng.Int63n(4000) - 1000
		}
		return keys[rng.Intn(len(keys))]
	}
	lo, hi := k(), k()
	if lo > hi {
		lo, hi = hi, lo
	}
	switch rng.Intn(5) {
	case 0:
		return fmt.Sprintf(" WHERE id = %d", lo), func(v int64) bool { return v == lo }
	case 1:
		return fmt.Sprintf(" WHERE id BETWEEN %d AND %d", lo, hi), func(v int64) bool { return lo <= v && v <= hi }
	case 2:
		return fmt.Sprintf(" WHERE id > %d AND id <= %d", lo, hi), func(v int64) bool { return lo < v && v <= hi }
	case 3:
		return fmt.Sprintf(" WHERE id >= %d", lo), func(v int64) bool { return lo <= v }
	default:
		return fmt.Sprintf(" WHERE id < %d", hi), func(v int64) bool { return v < hi }
	}
}

// heapAnswer is the reference: the rows where selects, read from the
// heap, in key order.
func heapAnswer(t *testing.T, db *Database, table, where string, match func(int64) bool) *Result {
	t.Helper()
	sql := "SELECT * FROM " + table + where
	res := execIn(t, db, sql, nil)
	if len(res.Columns) > 1 {
		if plan := explain(t, db, "EXPLAIN "+sql); strings.HasSuffix(plan, "(index only)") {
			t.Fatalf("%s: plan %q reads no heap", sql, plan)
		}
		return res
	}
	full := execIn(t, db, "SELECT * FROM "+table, nil)
	ref := &Result{Columns: full.Columns}
	for _, row := range full.Rows {
		if match(row[0].Int) {
			ref.Rows = append(ref.Rows, row)
		}
	}
	slices.SortFunc(ref.Rows, func(a, b catalog.Row) int { return cmp.Compare(a[0].Int, b[0].Int) })
	for _, row := range ref.Rows {
		ref.Keys = append(ref.Keys, uint64(row[0].Int))
	}
	return ref
}

// checkKeyOnly runs every key-only shape over where, in parts (nil:
// every row), against the heap's answer.
func checkKeyOnly(t *testing.T, db *Database, rng *rand.Rand, table string, keys []int64, partitioned bool) {
	t.Helper()
	where, match := koWhere(rng, keys)
	var parts *PartitionSet
	keep := func(uint64) bool { return true }
	if partitioned {
		parts, keep = randomSet(t, rng)
	}
	rows, wantAll := bruteFilter(heapAnswer(t, db, table, where, match), keep, -1)
	for _, sh := range keyOnlyShapes {
		limit, tail := -1, sh.tail
		if strings.Contains(tail, "%d") {
			limit = rng.Intn(6)
			tail = fmt.Sprintf(tail, limit)
		}
		sql := "SELECT " + sh.sel + " FROM " + table + where + tail
		if plan := explain(t, db, "EXPLAIN "+sql); !strings.HasSuffix(plan, " (index only)") {
			t.Fatalf("%s: plan %q is not index only", sql, plan)
		}
		got := execIn(t, db, sql, parts)

		var wantRows []catalog.Row
		wantKeys := wantAll
		switch {
		case sh.sel == "id":
			wantKeys = slices.Clone(wantAll)
			if strings.Contains(tail, "DESC") {
				slices.Reverse(wantKeys)
			}
			if limit >= 0 && len(wantKeys) > limit {
				wantKeys = wantKeys[:limit]
			}
			for _, k := range wantKeys {
				wantRows = append(wantRows, catalog.Row{catalog.IntValue(int64(k))})
			}
		case strings.HasPrefix(sh.sel, "COUNT"):
			wantRows = []catalog.Row{{bruteAggregate(t, "COUNT", 0, rows)}}
		default:
			var row catalog.Row
			for _, fn := range []string{"MIN", "MAX", "SUM", "AVG"} {
				row = append(row, bruteAggregate(t, fn, 0, rows))
			}
			wantRows = []catalog.Row{row}
		}
		if !sameRows(got.Rows, wantRows) || !slices.Equal(got.Keys, wantKeys) {
			var in []int
			if parts != nil {
				in = parts.in
			}
			t.Fatalf("%s in %v:\n  rows %.300v\n  want %.300v\n  keys %.300v\n  want %.300v",
				sql, in, fmt.Sprint(got.Rows), fmt.Sprint(wantRows), fmt.Sprint(got.Keys), fmt.Sprint(wantKeys))
		}
	}
}

// koStep applies one random write to table and returns its keys, sorted.
// wide tables get random non-key columns, and a key-changing UPDATE of
// one rewrites its TEXT column at a new length, which may move the row.
func koStep(t *testing.T, db *Database, rng *rand.Rand, table string, wide bool, keys []int64) []int64 {
	t.Helper()
	have := make(map[int64]bool, len(keys))
	for _, k := range keys {
		have[k] = true
	}
	fresh := func() int64 {
		for {
			if k := rng.Int63n(4000) - 1000; !have[k] {
				have[k] = true
				return k
			}
		}
	}
	switch r := rng.Intn(4); {
	case r < 2 || len(keys) < 10: // multi-row INSERT
		var vals []string
		for n := 1 + rng.Intn(60); n > 0; n-- {
			rest := ""
			if wide {
				rest = fmt.Sprintf(", %d, '%s'", rng.Intn(9), strings.Repeat("x", 100+rng.Intn(100)))
			}
			vals = append(vals, fmt.Sprintf("(%d%s)", fresh(), rest))
		}
		mustExec(t, db, "INSERT INTO "+table+" VALUES "+strings.Join(vals, ", "))
	case r == 2: // DELETE by range
		at := rng.Intn(len(keys))
		mustExec(t, db, fmt.Sprintf("DELETE FROM %s WHERE id BETWEEN %d AND %d",
			table, keys[at], keys[min(at+rng.Intn(10), len(keys)-1)]))
	default: // key-changing UPDATEs
		for n := 1 + rng.Intn(5); n > 0; n-- {
			old := keys[rng.Intn(len(keys))]
			if !have[old] {
				continue // moved by an earlier UPDATE of this step
			}
			delete(have, old)
			set := fmt.Sprintf("id = %d", fresh())
			if wide {
				set += fmt.Sprintf(", s = '%s'", strings.Repeat("y", rng.Intn(300)))
			}
			mustExec(t, db, fmt.Sprintf("UPDATE %s SET %s WHERE id = %d", table, set, old))
		}
	}
	var out []int64
	for _, k := range execIn(t, db, "SELECT id FROM "+table+" ORDER BY id", nil).Keys {
		out = append(out, int64(k))
	}
	return out
}

func TestKeyOnlyMatchesHeap(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			// A pool smaller than the heap: the heap side misses and
			// evicts between the rows of one run.
			open := func() *Database {
				db, err := Open(dir, WithPoolPages(24))
				if err != nil {
					t.Fatal(err)
				}
				return db
			}
			db := open()
			defer func() { db.Close() }()
			mustExec(t, db, `CREATE TABLE wide (id INT PRIMARY KEY, grp INT, s TEXT)`)
			mustExec(t, db, `CREATE TABLE keys (id INT PRIMARY KEY)`)
			var wideKeys, keyKeys []int64
			reopenAt := 20 + rng.Intn(20)
			for step := 0; step < 60; step++ {
				if step == reopenAt {
					if err := db.Close(); err != nil {
						t.Fatal(err)
					}
					db = open()
				}
				wideKeys = koStep(t, db, rng, "wide", true, wideKeys)
				keyKeys = koStep(t, db, rng, "keys", false, keyKeys)
				for _, partitioned := range []bool{false, false, true} {
					checkKeyOnly(t, db, rng, "wide", wideKeys, partitioned)
					checkKeyOnly(t, db, rng, "keys", keyKeys, partitioned)
				}
			}
		})
	}
}
