package catalog

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testSchema() Schema {
	return Schema{
		Table: "movies",
		Columns: []Column{
			{Name: "id", Type: Int},
			{Name: "title", Type: Text},
			{Name: "gross", Type: Float},
		},
		Key: 0,
	}
}

func TestParseType(t *testing.T) {
	cases := map[string]Type{
		"INT": Int, "integer": Int, "BIGINT": Int,
		"float": Float, "REAL": Float, "double": Float,
		"TEXT": Text, "varchar": Text, "STRING": Text,
	}
	for in, want := range cases {
		got, err := ParseType(in)
		if err != nil || got != want {
			t.Errorf("ParseType(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseType("BLOB"); err == nil {
		t.Error("unknown type accepted")
	}
}

func TestTypeString(t *testing.T) {
	if Int.String() != "INT" || Float.String() != "FLOAT" || Text.String() != "TEXT" {
		t.Fatal("type names wrong")
	}
	if Type(99).String() == "" {
		t.Fatal("invalid type has empty name")
	}
}

func TestSchemaValidate(t *testing.T) {
	if err := testSchema().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Schema{
		{Table: "", Columns: []Column{{Name: "id", Type: Int}}},
		{Table: "t"},
		{Table: "t", Columns: []Column{{Name: "id", Type: Int}}, Key: 5},
		{Table: "t", Columns: []Column{{Name: "id", Type: Text}}, Key: 0},
		{Table: "t", Columns: []Column{{Name: "id", Type: Int}, {Name: "ID", Type: Int}}},
		{Table: "t", Columns: []Column{{Name: "", Type: Int}}},
		{Table: "t", Columns: []Column{{Name: "id", Type: Int}, {Name: "x", Type: Type(9)}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, s)
		}
	}
}

func TestColumnIndex(t *testing.T) {
	s := testSchema()
	if s.ColumnIndex("title") != 1 {
		t.Fatal("title index")
	}
	if s.ColumnIndex("TITLE") != 1 {
		t.Fatal("case-insensitive lookup failed")
	}
	if s.ColumnIndex("nope") != -1 {
		t.Fatal("missing column found")
	}
}

func TestCatalogCreateGetDrop(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Create(testSchema()); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("MOVIES") // case-insensitive
	if err != nil || got.Table != "movies" {
		t.Fatalf("Get = %+v, %v", got, err)
	}
	if err := c.Create(testSchema()); err == nil {
		t.Fatal("duplicate create accepted")
	}
	if tables := c.Tables(); len(tables) != 1 || tables[0] != "movies" {
		t.Fatalf("Tables = %v", tables)
	}
	if err := c.Drop("movies"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("movies"); err == nil {
		t.Fatal("dropped table still present")
	}
	if err := c.Drop("movies"); err == nil {
		t.Fatal("double drop accepted")
	}
}

func TestCatalogPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	c, _ := Open(dir)
	if err := c.Create(testSchema()); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := c2.Get("movies")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Columns) != 3 || s.Columns[1].Name != "title" {
		t.Fatalf("reloaded schema = %+v", s)
	}
}

func TestCatalogRejectsCorruptFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "catalog.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("corrupt catalog accepted")
	}
}

func TestCatalogRejectsInvalidStoredSchema(t *testing.T) {
	dir := t.TempDir()
	// Valid JSON, invalid schema (TEXT primary key).
	blob := `[{"table":"t","columns":[{"name":"id","type":3}],"key":0}]`
	if err := os.WriteFile(filepath.Join(dir, "catalog.json"), []byte(blob), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("invalid stored schema accepted")
	}
}

func TestCatalogCreateValidates(t *testing.T) {
	c, _ := Open(t.TempDir())
	bad := testSchema()
	bad.Key = 1 // TEXT key
	if err := c.Create(bad); err == nil {
		t.Fatal("invalid schema accepted")
	}
}

// TestLayoutStampPersists: a stamped schema keeps its stamp across a
// reopen, an unstamped one writes no "layout" key and reads back as the
// zero value (which the engine refuses), and a stamp this code does not
// know is refused.
func TestLayoutStampPersists(t *testing.T) {
	dir := t.TempDir()
	c, _ := Open(dir)
	stamped := testSchema()
	stamped.Layout = LayoutVerbatim
	plain := testSchema()
	plain.Table = "old"
	for _, s := range []Schema{stamped, plain} {
		if err := c.Create(s); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, "catalog.json"))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), `"layout"`); n != 1 {
		t.Fatalf("catalog.json names a layout %d times, want once:\n%s", n, data)
	}
	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for table, want := range map[string]Layout{"movies": LayoutVerbatim, "old": 0} {
		if s, err := c2.Get(table); err != nil || s.Layout != want {
			t.Fatalf("%s: layout %d (%v), want %d", table, s.Layout, err, want)
		}
	}
	unknown := testSchema()
	unknown.Layout = LayoutVerbatim + 1
	if err := unknown.Validate(); err == nil {
		t.Fatal("unknown layout accepted")
	}
}
