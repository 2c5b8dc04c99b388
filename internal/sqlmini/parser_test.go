package sqlmini

import (
	"strings"
	"testing"
)

func mustParse(t *testing.T, src string) Statement {
	t.Helper()
	s, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return s
}

func TestParseCreateTable(t *testing.T) {
	s := mustParse(t, `CREATE TABLE movies (id INT PRIMARY KEY, title TEXT, gross FLOAT)`)
	ct, ok := s.(*CreateTable)
	if !ok {
		t.Fatalf("got %T", s)
	}
	if ct.Table != "movies" || len(ct.Columns) != 3 {
		t.Fatalf("%+v", ct)
	}
	if !ct.Columns[0].PrimaryKey || ct.Columns[1].PrimaryKey {
		t.Fatal("primary key flags wrong")
	}
	if ct.Columns[2].TypeName != "FLOAT" {
		t.Fatalf("type name %q", ct.Columns[2].TypeName)
	}
}

func TestParseDropTable(t *testing.T) {
	s := mustParse(t, "DROP TABLE movies;")
	dt, ok := s.(*DropTable)
	if !ok || dt.Table != "movies" {
		t.Fatalf("%T %+v", s, s)
	}
}

func TestParseInsertMultiRow(t *testing.T) {
	s := mustParse(t, `INSERT INTO t VALUES (1, 'a', 1.5), (2, 'it''s', -3)`)
	ins := s.(*Insert)
	if ins.Table != "t" || len(ins.Rows) != 2 {
		t.Fatalf("%+v", ins)
	}
	r0, r1 := ins.Rows[0], ins.Rows[1]
	if r0[0].Kind != IntLit || r0[0].Int != 1 {
		t.Fatalf("r0[0] = %v", r0[0])
	}
	if r0[1].Kind != StringLit || r0[1].Str != "a" {
		t.Fatalf("r0[1] = %v", r0[1])
	}
	if r0[2].Kind != FloatLit || r0[2].Float != 1.5 {
		t.Fatalf("r0[2] = %v", r0[2])
	}
	if r1[1].Str != "it's" {
		t.Fatalf("escaped quote: %q", r1[1].Str)
	}
	if r1[2].Kind != IntLit || r1[2].Int != -3 {
		t.Fatalf("negative: %v", r1[2])
	}
}

func TestParseSelectStar(t *testing.T) {
	s := mustParse(t, "SELECT * FROM movies")
	sel := s.(*Select)
	if sel.Columns != nil || sel.Table != "movies" || sel.Where != nil || sel.Limit != -1 {
		t.Fatalf("%+v", sel)
	}
}

func TestParseSelectColumnsWhereLimit(t *testing.T) {
	s := mustParse(t, "SELECT id, title FROM movies WHERE id = 7 AND gross >= 1000.5 LIMIT 10")
	sel := s.(*Select)
	if len(sel.Columns) != 2 || sel.Columns[1] != "title" {
		t.Fatalf("columns %v", sel.Columns)
	}
	if sel.Limit != 10 {
		t.Fatalf("limit %d", sel.Limit)
	}
	if len(sel.Where.Conjuncts) != 2 {
		t.Fatalf("conjuncts %v", sel.Where.Conjuncts)
	}
	c0 := sel.Where.Conjuncts[0]
	if c0.Column != "id" || c0.Op != OpEq || c0.Value.Int != 7 {
		t.Fatalf("c0 = %+v", c0)
	}
	c1 := sel.Where.Conjuncts[1]
	if c1.Op != OpGe || c1.Value.Float != 1000.5 {
		t.Fatalf("c1 = %+v", c1)
	}
}

func TestParseBetweenDesugars(t *testing.T) {
	s := mustParse(t, "SELECT * FROM t WHERE id BETWEEN 5 AND 10")
	sel := s.(*Select)
	cs := sel.Where.Conjuncts
	if len(cs) != 2 {
		t.Fatalf("conjuncts %v", cs)
	}
	if cs[0].Op != OpGe || cs[0].Value.Int != 5 {
		t.Fatalf("lo = %+v", cs[0])
	}
	if cs[1].Op != OpLe || cs[1].Value.Int != 10 {
		t.Fatalf("hi = %+v", cs[1])
	}
}

func TestParseAllOperators(t *testing.T) {
	ops := map[string]CmpOp{
		"=": OpEq, "!=": OpNe, "<>": OpNe,
		"<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
	}
	for text, want := range ops {
		s := mustParse(t, "SELECT * FROM t WHERE x "+text+" 1")
		got := s.(*Select).Where.Conjuncts[0].Op
		if got != want {
			t.Errorf("op %q parsed as %v", text, got)
		}
	}
}

func TestParseUpdate(t *testing.T) {
	s := mustParse(t, "UPDATE t SET a = 1, b = 'x' WHERE id = 5")
	up := s.(*Update)
	if up.Table != "t" || len(up.Set) != 2 {
		t.Fatalf("%+v", up)
	}
	if up.Set[0].Column != "a" || up.Set[0].Value.Int != 1 {
		t.Fatalf("set[0] = %+v", up.Set[0])
	}
	if up.Set[1].Value.Str != "x" {
		t.Fatalf("set[1] = %+v", up.Set[1])
	}
	if up.Where == nil || up.Where.Conjuncts[0].Value.Int != 5 {
		t.Fatalf("where = %+v", up.Where)
	}
}

func TestParseUpdateNoWhere(t *testing.T) {
	s := mustParse(t, "UPDATE t SET a = 1")
	if s.(*Update).Where != nil {
		t.Fatal("phantom where")
	}
}

func TestParseDelete(t *testing.T) {
	s := mustParse(t, "DELETE FROM t WHERE id > 100")
	del := s.(*Delete)
	if del.Table != "t" || del.Where.Conjuncts[0].Op != OpGt {
		t.Fatalf("%+v", del)
	}
	s2 := mustParse(t, "DELETE FROM t")
	if s2.(*Delete).Where != nil {
		t.Fatal("phantom where")
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	mustParse(t, "select * from t where id = 1 limit 5")
	mustParse(t, "Select * From t Where id Between 1 And 2")
	mustParse(t, "insert into t values (1)")
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t WHERE id",
		"SELECT * FROM t WHERE id =",
		"SELECT * FROM t LIMIT x",
		"SELECT * FROM t LIMIT -1",
		"SELECT * FROM t extra",
		"CREATE TABLE",
		"CREATE TABLE t",
		"CREATE TABLE t (",
		"CREATE TABLE t (id INT",
		"CREATE TABLE t (id INT PRIMARY)",
		"INSERT INTO t",
		"INSERT INTO t VALUES",
		"INSERT INTO t VALUES (",
		"INSERT INTO t VALUES (1",
		"INSERT t VALUES (1)",
		"UPDATE t",
		"UPDATE t SET",
		"UPDATE t SET a",
		"UPDATE t SET a = ",
		"DELETE t",
		"DROP t",
		"FOO BAR",
		"SELECT * FROM t WHERE id BETWEEN 1",
		"SELECT * FROM t WHERE id BETWEEN 1 AND",
		"SELECT * FROM t WHERE id ! 1",
		"SELECT * FROM t WHERE id = 'unterminated",
		"SELECT * FROM t WHERE id = 1.2.3",
		"SELECT * FROM t WHERE id = 1.",
		"SELECT * FROM t WHERE id = #",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
}

func TestParseErrorsMentionContext(t *testing.T) {
	_, err := Parse("SELECT * FROM t WHERE id = ")
	if err == nil || !strings.Contains(err.Error(), "literal") {
		t.Fatalf("err = %v", err)
	}
}

func TestLiteralAndOpStrings(t *testing.T) {
	if (Literal{Kind: IntLit, Int: 4}).String() != "4" {
		t.Fatal("int literal string")
	}
	if (Literal{Kind: FloatLit, Float: 2.5}).String() != "2.5" {
		t.Fatal("float literal string")
	}
	if (Literal{Kind: StringLit, Str: "x"}).String() != "'x'" {
		t.Fatal("string literal string")
	}
	if (Literal{}).String() != "<invalid literal>" {
		t.Fatal("invalid literal string")
	}
	for op, want := range map[CmpOp]string{OpEq: "=", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">="} {
		if op.String() != want {
			t.Fatalf("op string %v", op)
		}
	}
	if CmpOp(0).String() != "<invalid op>" {
		t.Fatal("invalid op string")
	}
}

func TestParseTrailingSemicolonOnly(t *testing.T) {
	mustParse(t, "SELECT * FROM t;")
	if _, err := Parse("SELECT * FROM t;;"); err == nil {
		t.Fatal("double semicolon accepted")
	}
}

// TestParseScriptTexts: ParseScript splits on semicolons outside string
// literals, skips -- comments and empty statements, and hands back each
// statement's own text.
func TestParseScriptTexts(t *testing.T) {
	for _, c := range []struct {
		src  string
		want []string
	}{
		{"CREATE TABLE t (id INT PRIMARY KEY);\n-- a comment; with a semicolon\nINSERT INTO t VALUES (1);\nINSERT INTO t VALUES (2)",
			[]string{"CREATE TABLE t (id INT PRIMARY KEY)", "INSERT INTO t VALUES (1)", "INSERT INTO t VALUES (2)"}},
		{`INSERT INTO t VALUES (1, 'a;b''c;d');INSERT INTO t VALUES (2, 'x')`,
			[]string{`INSERT INTO t VALUES (1, 'a;b''c;d')`, `INSERT INTO t VALUES (2, 'x')`}},
		{";; -- nothing but a comment\n;", nil},
		{"DELETE FROM t -- every row\nWHERE id >= -1 -- and then some\n;",
			[]string{"DELETE FROM t -- every row\nWHERE id >= -1 -- and then some"}},
	} {
		stmts, texts, err := ParseScript(c.src)
		if err != nil {
			t.Fatalf("%q: %v", c.src, err)
		}
		if len(stmts) != len(c.want) || strings.Join(texts, "|") != strings.Join(c.want, "|") {
			t.Fatalf("%q: %d statements, texts %q, want %q", c.src, len(stmts), texts, c.want)
		}
	}
	if _, err := Parse("SELECT * FROM t WHERE id = 1 -- it's\n"); err != nil {
		t.Fatalf("comment after a statement: %v", err)
	}
	if _, err := Parse("SELECT * FROM t WHERE id = --1"); err == nil {
		t.Fatal("a comment where the literal belongs parsed")
	}
}
