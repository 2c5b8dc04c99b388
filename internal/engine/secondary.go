package engine

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/index"
	"repro/internal/sqlmini"
	"repro/internal/storage"
)

// secondary is a non-unique in-memory index over one column, rebuilt at
// load time like the primary key index. One of the three trees is
// populated according to the column type.
type secondary struct {
	def  catalog.IndexDef
	col  int
	typ  catalog.Type
	ints *index.BTree[int64, []storage.RID]
	flts *index.BTree[float64, []storage.RID]
	strs *index.BTree[string, []storage.RID]
}

func newSecondary(def catalog.IndexDef, schema catalog.Schema) (*secondary, error) {
	ci := schema.ColumnIndex(def.Column)
	if ci < 0 {
		return nil, fmt.Errorf("engine: index %q references unknown column %q", def.Name, def.Column)
	}
	s := &secondary{def: def, col: ci, typ: schema.Columns[ci].Type}
	switch s.typ {
	case catalog.Int:
		s.ints = index.NewBTree[int64, []storage.RID]()
	case catalog.Float:
		s.flts = index.NewBTree[float64, []storage.RID]()
	case catalog.Text:
		s.strs = index.NewBTree[string, []storage.RID]()
	default:
		return nil, fmt.Errorf("engine: index %q over invalid column type", def.Name)
	}
	return s, nil
}

// addRID appends rid under key, tolerating duplicates across distinct
// rids.
func addRID[K index.Ordered](t *index.BTree[K, []storage.RID], key K, rid storage.RID) {
	rids, _ := t.Get(key)
	t.Put(key, append(append([]storage.RID(nil), rids...), rid))
}

func removeRID[K index.Ordered](t *index.BTree[K, []storage.RID], key K, rid storage.RID) {
	rids, ok := t.Get(key)
	if !ok {
		return
	}
	out := rids[:0:0]
	for _, r := range rids {
		if r != rid {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		t.Delete(key)
		return
	}
	t.Put(key, out)
}

// insert indexes row at rid.
func (s *secondary) insert(row catalog.Row, rid storage.RID) {
	v := row[s.col]
	switch s.typ {
	case catalog.Int:
		addRID(s.ints, v.Int, rid)
	case catalog.Float:
		addRID(s.flts, v.Float, rid)
	case catalog.Text:
		addRID(s.strs, v.Str, rid)
	}
}

// remove unindexes row at rid.
func (s *secondary) remove(row catalog.Row, rid storage.RID) {
	v := row[s.col]
	switch s.typ {
	case catalog.Int:
		removeRID(s.ints, v.Int, rid)
	case catalog.Float:
		removeRID(s.flts, v.Float, rid)
	case catalog.Text:
		removeRID(s.strs, v.Str, rid)
	}
}

// lookupLiteral returns the rids whose column equals the literal, or
// ok=false if the literal's type cannot be an exact key for this index.
func (s *secondary) lookupLiteral(lit sqlmini.Literal) (rids []storage.RID, ok bool) {
	switch s.typ {
	case catalog.Int:
		if lit.Kind != sqlmini.IntLit {
			return nil, false
		}
		r, _ := s.ints.Get(lit.Int)
		return r, true
	case catalog.Float:
		switch lit.Kind {
		case sqlmini.FloatLit:
			r, _ := s.flts.Get(lit.Float)
			return r, true
		case sqlmini.IntLit:
			r, _ := s.flts.Get(float64(lit.Int))
			return r, true
		}
		return nil, false
	case catalog.Text:
		if lit.Kind != sqlmini.StringLit {
			return nil, false
		}
		r, _ := s.strs.Get(lit.Str)
		return r, true
	}
	return nil, false
}

// findSecondaryByCol returns the table's secondary index over the given
// schema column, if any. The planner resolves columns to indices before
// plan choice, so the lookup is an integer compare per index.
func (t *table) findSecondaryByCol(col int) *secondary {
	for _, s := range t.secondaries {
		if s.col == col {
			return s
		}
	}
	return nil
}

// createIndex defines and builds a secondary index over the table.
func (db *Database) execCreateIndex(s *sqlmini.CreateIndex) (*Result, error) {
	t, err := db.getTable(s.Table)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, existing := range t.schema.Indexes {
		if strings.EqualFold(existing.Name, s.Name) {
			return nil, fmt.Errorf("engine: index %q already exists on %q", s.Name, s.Table)
		}
	}
	def := catalog.IndexDef{Name: s.Name, Column: s.Column}
	sec, err := newSecondary(def, t.schema)
	if err != nil {
		return nil, err
	}
	if err := t.scanRows(sec.insert); err != nil {
		return nil, fmt.Errorf("engine: building index %q: %w", s.Name, err)
	}
	newSchema := t.schema
	newSchema.Indexes = append(append([]catalog.IndexDef(nil), t.schema.Indexes...), def)
	if err := db.cat.UpdateSchema(newSchema); err != nil {
		return nil, err
	}
	t.schema = newSchema
	t.secondaries = append(t.secondaries, sec)
	// The index changes plan choice; invalidate cached plans before the
	// exclusive lock drops so no stale template survives the DDL.
	db.bumpSchemaEpoch()
	return &Result{}, nil
}

// execDropIndex removes a secondary index.
func (db *Database) execDropIndex(s *sqlmini.DropIndex) (*Result, error) {
	t, err := db.getTable(s.Table)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	pos := -1
	for i, def := range t.schema.Indexes {
		if strings.EqualFold(def.Name, s.Name) {
			pos = i
			break
		}
	}
	if pos < 0 {
		return nil, fmt.Errorf("engine: index %q does not exist on %q", s.Name, s.Table)
	}
	newSchema := t.schema
	newSchema.Indexes = append(
		append([]catalog.IndexDef(nil), t.schema.Indexes[:pos]...),
		t.schema.Indexes[pos+1:]...)
	if err := db.cat.UpdateSchema(newSchema); err != nil {
		return nil, err
	}
	t.schema = newSchema
	t.secondaries = append(t.secondaries[:pos], t.secondaries[pos+1:]...)
	db.bumpSchemaEpoch()
	return &Result{}, nil
}
