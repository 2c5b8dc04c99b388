package engine

import (
	"strings"
	"testing"
)

func explainDB(t *testing.T) *Database {
	t.Helper()
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, city TEXT, v INT)`)
	for i := 0; i < 20; i++ {
		mustExec(t, db, `INSERT INTO t VALUES (`+itoa(i)+`, 'c`+itoa(i%3)+`', `+itoa(i*2)+`)`)
	}
	mustExec(t, db, `CREATE INDEX by_city ON t (city)`)
	return db
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func explain(t *testing.T, db *Database, sql string) string {
	t.Helper()
	res := mustExec(t, db, sql)
	if len(res.Rows) != 1 || res.Columns[0] != "plan" {
		t.Fatalf("explain result = %+v", res)
	}
	return res.Rows[0][0].Str
}

func TestExplainPlans(t *testing.T) {
	db := explainDB(t)
	cases := []struct {
		sql  string
		want string
		only bool // the plan ends in "(index only)"
	}{
		{`EXPLAIN SELECT * FROM t WHERE id = 5`, "primary key point lookup", false},
		{`EXPLAIN SELECT * FROM t WHERE id >= 3 AND id < 9`, "primary key range scan", false},
		{`EXPLAIN SELECT * FROM t WHERE city = 'c1'`, "secondary index", false},
		{`EXPLAIN SELECT * FROM t WHERE v = 4`, "full table scan", false},
		{`EXPLAIN SELECT * FROM t`, "full table scan", false},
		{`EXPLAIN SELECT * FROM t WHERE id = 1 AND id = 2`, "no-op", false},
		{`EXPLAIN SELECT COUNT(*) FROM t WHERE id BETWEEN 3 AND 9`, "primary key range scan", true},
		{`EXPLAIN SELECT COUNT(*) FROM t WHERE id >= 3 AND v = 4`, "primary key range scan", false},
		{`EXPLAIN SELECT COUNT(*) FROM t`, "full table scan", false},
		{`EXPLAIN SELECT COUNT(*) FROM t WHERE city = 'c1'`, "secondary index", false},
		{`EXPLAIN SELECT id FROM t WHERE id = 5`, "primary key point lookup", true},
		{`EXPLAIN SELECT id FROM t WHERE id < 9 ORDER BY id DESC LIMIT 2`, "primary key range scan", true},
		{`EXPLAIN SELECT id FROM t WHERE id < 9 ORDER BY v`, "primary key range scan", false},
		{`EXPLAIN SELECT MAX(id), SUM(id) FROM t WHERE id > 2`, "primary key range scan", true},
		{`EXPLAIN SELECT MAX(v) FROM t WHERE id > 2`, "primary key range scan", false},
	}
	for _, c := range cases {
		got := explain(t, db, c.sql)
		if !strings.Contains(got, c.want) {
			t.Errorf("%s\n  plan %q does not mention %q", c.sql, got, c.want)
		}
		if only := strings.HasSuffix(got, " (index only)"); only != c.only {
			t.Errorf("%s\n  plan %q: index only %v, want %v", c.sql, got, only, c.only)
		}
	}
}

func TestExplainPrefersPointOverSecondary(t *testing.T) {
	db := explainDB(t)
	got := explain(t, db, `EXPLAIN SELECT * FROM t WHERE city = 'c1' AND id = 5`)
	if !strings.Contains(got, "primary key point lookup") {
		t.Fatalf("plan = %q", got)
	}
}

func TestExplainSecondaryShowsCandidates(t *testing.T) {
	db := explainDB(t)
	got := explain(t, db, `EXPLAIN SELECT * FROM t WHERE city = 'c0'`)
	if !strings.Contains(got, "candidate rows") {
		t.Fatalf("plan = %q", got)
	}
}

func TestExplainErrors(t *testing.T) {
	db := explainDB(t)
	if _, err := db.Exec(`EXPLAIN UPDATE t SET v = 1`); err == nil {
		t.Fatal("EXPLAIN UPDATE accepted")
	}
	if _, err := db.Exec(`EXPLAIN SELECT * FROM t WHERE nope = 1`); err == nil {
		t.Fatal("EXPLAIN with unknown column accepted")
	}
}
