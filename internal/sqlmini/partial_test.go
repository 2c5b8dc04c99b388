package sqlmini

import (
	"testing"
)

func TestPKEqual(t *testing.T) {
	cases := []struct {
		sql string
		key int64
		ok  bool
	}{
		{`SELECT v FROM items WHERE id = 7`, 7, true},
		{`SELECT v FROM items WHERE ID = 7`, 7, true}, // case-insensitive column
		{`SELECT v FROM items WHERE v = 'x' AND id = 9`, 9, true},
		{`SELECT v FROM items WHERE id >= 7`, 0, false},
		{`SELECT v FROM items WHERE id = 'seven'`, 0, false},
		{`SELECT v FROM items WHERE v = 'x'`, 0, false},
		{`SELECT v FROM items`, 0, false},
	}
	for _, c := range cases {
		sel := mustParse(t, c.sql).(*Select)
		key, ok := PKEqual(sel.Where, "id")
		if ok != c.ok || (ok && key != c.key) {
			t.Errorf("PKEqual(%q) = (%d, %v), want (%d, %v)", c.sql, key, ok, c.key, c.ok)
		}
	}
	if _, ok := PKEqual(nil, "id"); ok {
		t.Error("PKEqual(nil) pinned a key")
	}
}

func TestPKBounds(t *testing.T) {
	cases := []struct {
		sql          string
		lo, hi       int64
		hasLo, hasHi bool
	}{
		{`SELECT v FROM items WHERE id BETWEEN 3 AND 9`, 3, 9, true, true},
		{`SELECT v FROM items WHERE id > 3 AND ID < 9`, 4, 8, true, true},
		{`SELECT v FROM items WHERE id >= 3 AND id >= 5 AND id <= 20 AND id <= 9`, 5, 9, true, true},
		{`SELECT v FROM items WHERE id = 7 AND v = 'x'`, 7, 7, true, true},
		{`SELECT v FROM items WHERE id >= -4`, -4, 0, true, false},
		{`SELECT v FROM items WHERE id < 10`, 0, 9, false, true},
		{`SELECT v FROM items WHERE id > 9223372036854775807 AND id <= 5`, 0, 5, false, true},
		{`SELECT v FROM items WHERE id >= 2.5 AND v <= 3`, 0, 0, false, false},
		{`SELECT v FROM items WHERE id != 4`, 0, 0, false, false},
		{`SELECT v FROM items`, 0, 0, false, false},
	}
	for _, c := range cases {
		sel := mustParse(t, c.sql).(*Select)
		lo, hi, hasLo, hasHi := PKBounds(sel.Where, "id")
		if hasLo != c.hasLo || hasHi != c.hasHi || (hasLo && lo != c.lo) || (hasHi && hi != c.hi) {
			t.Errorf("PKBounds(%q) = (%d, %d, %v, %v), want (%d, %d, %v, %v)", c.sql, lo, hi, hasLo, hasHi, c.lo, c.hi, c.hasLo, c.hasHi)
		}
	}
}

func TestPartialAggregates(t *testing.T) {
	sel := mustParse(t, `SELECT COUNT(*), SUM(x), AVG(x), MIN(x), MAX(x) FROM t`).(*Select)
	partials, src := PartialAggregates(sel.Aggregates)

	// COUNT(*), SUM(x) map to themselves; AVG adds nothing new (SUM and
	// COUNT already present); MIN and MAX add themselves and share the
	// COUNT partial. Distinct partials: COUNT(*), SUM(x), MIN(x), MAX(x).
	wantPartials := []string{"count(*)", "sum(x)", "min(x)", "max(x)"}
	if len(partials) != len(wantPartials) {
		t.Fatalf("partials %v, want %v", partials, wantPartials)
	}
	for i, w := range wantPartials {
		if AggregateName(partials[i]) != w {
			t.Fatalf("partial %d = %s, want %s", i, AggregateName(partials[i]), w)
		}
	}
	wantSrc := [][]int{{0}, {1}, {1, 0}, {2, 0}, {3, 0}}
	for i, w := range wantSrc {
		if len(src[i]) != len(w) {
			t.Fatalf("src[%d] = %v, want %v", i, src[i], w)
		}
		for j := range w {
			if src[i][j] != w[j] {
				t.Fatalf("src[%d] = %v, want %v", i, src[i], w)
			}
		}
	}
}

// TestRenderRoundTrips checks the property the router depends on: a
// rendered statement parses back to the same statement.
func TestRenderRoundTrips(t *testing.T) {
	cases := []string{
		`SELECT * FROM items`,
		`SELECT id, v FROM items WHERE id = 7`,
		`SELECT v FROM items WHERE id >= 3 AND v <> 'x''y' ORDER BY id DESC LIMIT 10`,
		`SELECT COUNT(*), SUM(id) FROM items WHERE id <= 100`,
		`SELECT MIN(id), MAX(id) FROM items`,
		`INSERT INTO items VALUES (1, 'a'), (2, 'b;c')`,
		`UPDATE items SET v = 'z' WHERE id = 4`,
		`UPDATE items SET v = 'z', w = 3 WHERE id > 2 AND id < 9`,
		`DELETE FROM items WHERE id = 5`,
		`DELETE FROM items`,
	}
	for _, sql := range cases {
		first := Render(mustParse(t, sql))
		second := Render(mustParse(t, first))
		if first != second {
			t.Errorf("render of %q not stable: %q then %q", sql, first, second)
		}
	}
}

func TestRenderPanicsOnDDL(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Render accepted DDL")
		}
	}()
	Render(mustParse(t, `CREATE TABLE t (id INT PRIMARY KEY)`))
}

func TestQuoteLiteral(t *testing.T) {
	cases := []struct {
		lit  Literal
		want string
	}{
		{Literal{Kind: IntLit, Int: 42}, "42"},
		{Literal{Kind: StringLit, Str: "plain"}, "'plain'"},
		{Literal{Kind: StringLit, Str: "a'b"}, "'a''b'"},
		{Literal{Kind: StringLit, Str: ""}, "''"},
		{Literal{Kind: StringLit, Str: "'a''"}, "'''a'''''"},
		{Literal{Kind: IntLit, Int: -7}, "-7"},
		// A float keeps its '.' and takes no exponent, so it lexes back
		// as the same FLOAT, never as an INT or a rejected token.
		{Literal{Kind: FloatLit, Float: 2500000.5}, "2500000.5"},
		{Literal{Kind: FloatLit, Float: 0.00001}, "0.00001"},
		{Literal{Kind: FloatLit, Float: 2.0}, "2.0"},
		{Literal{Kind: FloatLit, Float: -1.25}, "-1.25"},
		{Literal{Kind: FloatLit, Float: 1e21}, "1000000000000000000000.0"},
	}
	for _, c := range cases {
		got := QuoteLiteral(c.lit)
		if got != c.want {
			t.Errorf("QuoteLiteral(%v) = %q, want %q", c.lit, got, c.want)
			continue
		}
		// The quoted form must lex back to the same value.
		sql := "SELECT v FROM t WHERE c = " + got
		sel := mustParse(t, sql).(*Select)
		back := sel.Where.Conjuncts[0].Value
		if back != c.lit {
			t.Errorf("QuoteLiteral(%v) round-trips to %v", c.lit, back)
		}
	}
}
