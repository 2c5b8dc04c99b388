package engine

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/catalog"
	"repro/internal/sqlmini"
)

// CountStore persists per-tuple access counts in a dedicated table of the
// database itself, implementing counters.Store. This is the paper's §2.3
// "add a count attribute" design realized as a side table, so that count
// maintenance pays real page I/O — which is exactly what the Table 5
// overhead experiment measures. Pair it with counters.CountCache to get
// the paper's "small, write-behind cache of tuple counts".
//
// The store is an ordinary client of the statement executor: every method
// builds sqlmini statements and runs them through ExecStmt, so a count
// row changes the way any row does — in a write set, logged before it is
// published.
//
// A snapshot save (ReplaceAllCounts) cannot be one statement, because a
// write set pins every page it touches and a snapshot may be larger than
// the pool. Instead the counts of base table B live in generation g of
// the store, the table "__counts_B" for g = 0 and "__counts_B_<g>" above:
// a save fills generation g+1 and then drops generation g, and that drop
// — one atomic rename of the catalog file — is the commit. On open the
// lowest generation in the catalog is live and any higher one is a save
// that never committed.
type CountStore struct {
	db   *Database
	name string // the table of generation 0

	// mu makes PutCount's update-else-insert and a save's switch of
	// generations one step each.
	mu  sync.Mutex
	gen int // the live generation
}

// countBatchRows bounds one INSERT of a snapshot save to two or three
// heap pages, whatever the size of the snapshot.
const countBatchRows = 256

// countSchema returns the schema of a count side table.
func countSchema(name string) catalog.Schema {
	return catalog.Schema{
		Table: name,
		Columns: []catalog.Column{
			{Name: "id", Type: catalog.Int},
			{Name: "cnt", Type: catalog.Float},
		},
		Key: 0,
	}
}

// generationOf parses the part of a count table's name after the name of
// generation 0: "" is generation 0, "_<g>" in canonical decimal is g.
func generationOf(suffix string) (int, bool) {
	if suffix == "" {
		return 0, true
	}
	g, err := strconv.Atoi(strings.TrimPrefix(suffix, "_"))
	if err != nil || g < 1 || suffix != "_"+strconv.Itoa(g) {
		return 0, false
	}
	return g, true
}

// table returns the name of generation gen's table.
func (s *CountStore) table(gen int) string {
	if gen == 0 {
		return s.name
	}
	return s.name + "_" + strconv.Itoa(gen)
}

// NewCountStore opens (creating if needed) the count store of the named
// base table, and drops what an unfinished save left behind. A base name
// may not itself end in "_<digits>": its generation 0 would read as a
// generation of the name before the underscore.
func NewCountStore(db *Database, baseTable string) (*CountStore, error) {
	if i := strings.LastIndexByte(baseTable, '_'); i >= 0 {
		if _, ok := generationOf(baseTable[i:]); ok {
			return nil, fmt.Errorf("engine: count store base table %q ends in a generation suffix", baseTable)
		}
	}
	s := &CountStore{db: db, name: "__counts_" + baseTable}
	var gens []int
	for _, name := range db.cat.Tables() {
		if len(name) < len(s.name) || !strings.EqualFold(name[:len(s.name)], s.name) {
			continue
		}
		if g, ok := generationOf(name[len(s.name):]); ok {
			gens = append(gens, g)
		}
	}
	if len(gens) == 0 {
		if err := db.CreateTable(countSchema(s.name)); err != nil {
			return nil, fmt.Errorf("engine: creating count table: %w", err)
		}
		return s, nil
	}
	slices.Sort(gens)
	s.gen = gens[0]
	for _, g := range gens[1:] {
		if err := db.DropTable(s.table(g)); err != nil {
			return nil, fmt.Errorf("engine: dropping unfinished count snapshot: %w", err)
		}
	}
	return s, nil
}

// The two columns of a count row as statement literals.
func idLit(id uint64) sqlmini.Literal { return sqlmini.Literal{Kind: sqlmini.IntLit, Int: int64(id)} }
func cntLit(count float64) sqlmini.Literal {
	return sqlmini.Literal{Kind: sqlmini.FloatLit, Float: count}
}

// whereID is the WHERE clause "id = <id>".
func whereID(id uint64) *sqlmini.Where {
	return &sqlmini.Where{Conjuncts: []sqlmini.Comparison{{Column: "id", Op: sqlmini.OpEq, Value: idLit(id)}}}
}

// GetCount implements counters.Store.
func (s *CountStore) GetCount(id uint64) (float64, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	res, err := s.db.ExecStmt(&sqlmini.Select{
		Table: s.table(s.gen), Columns: []string{"cnt"}, Where: whereID(id), Limit: -1,
	}, nil)
	if err != nil || len(res.Rows) == 0 {
		return 0, false, err
	}
	return res.Rows[0][0].Float, true, nil
}

// PutCount implements counters.Store.
func (s *CountStore) PutCount(id uint64, count float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	table := s.table(s.gen)
	res, err := s.db.ExecStmt(&sqlmini.Update{
		Table: table, Set: []sqlmini.Assignment{{Column: "cnt", Value: cntLit(count)}}, Where: whereID(id),
	}, nil)
	if err != nil || res.Affected > 0 {
		return err
	}
	_, err = s.db.ExecStmt(&sqlmini.Insert{Table: table, Rows: [][]sqlmini.Literal{{idLit(id), cntLit(count)}}}, nil)
	return err
}

// ReplaceAllCounts implements counters.BatchStore: after it returns the
// store holds exactly the given snapshot, and a crash at any point of it
// recovers exactly the previous snapshot or exactly this one — at any
// size, since no step holds more than countBatchRows rows' pages. A save
// that fails leaves the previous snapshot live; the next save or open
// drops the generation it was filling.
func (s *CountStore) ReplaceAllCounts(ids []uint64, counts []float64) error {
	if len(ids) != len(counts) {
		return fmt.Errorf("engine: ids/counts length mismatch (%d vs %d)", len(ids), len(counts))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	live, next := s.table(s.gen), s.table(s.gen+1)
	if _, err := s.db.cat.Get(next); err == nil {
		if err := s.db.DropTable(next); err != nil {
			return fmt.Errorf("engine: dropping unfinished count snapshot: %w", err)
		}
	}
	if err := s.db.CreateTable(countSchema(next)); err != nil {
		return fmt.Errorf("engine: creating count snapshot: %w", err)
	}
	rows := make([][]sqlmini.Literal, 0, countBatchRows)
	for off := 0; off < len(ids); off += len(rows) {
		rows = rows[:0]
		for i := off; i < min(off+countBatchRows, len(ids)); i++ {
			rows = append(rows, []sqlmini.Literal{idLit(ids[i]), cntLit(counts[i])})
		}
		if _, err := s.db.ExecStmt(&sqlmini.Insert{Table: next, Rows: rows}, nil); err != nil {
			return fmt.Errorf("engine: writing count snapshot: %w", err)
		}
	}
	// The new generation must be whole on disk before the old one goes:
	// without a WAL its pages are only in the pool.
	t, err := s.db.getTable(next)
	if err == nil {
		err = t.flush()
	}
	if err != nil {
		return fmt.Errorf("engine: flushing count snapshot: %w", err)
	}
	err = s.db.DropTable(live)
	if _, gone := s.db.cat.Get(live); gone != nil {
		// The catalog no longer lists the old generation: the save has
		// committed, whatever became of the old files.
		s.gen++
	}
	return err
}

// AllCounts returns every persisted (id, count) pair, in the order the
// heap holds them (after a snapshot save, the order of the snapshot). It
// lets a restarted shield reload its learned distribution.
func (s *CountStore) AllCounts() (ids []uint64, counts []float64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	res, err := s.db.ExecStmt(&sqlmini.Select{Table: s.table(s.gen), Limit: -1}, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("engine: reading counts: %w", err)
	}
	ids = make([]uint64, len(res.Rows))
	counts = make([]float64, len(res.Rows))
	for i, row := range res.Rows {
		ids[i], counts[i] = uint64(row[0].Int), row[1].Float
	}
	return ids, counts, nil
}

var _ interface {
	GetCount(uint64) (float64, bool, error)
	PutCount(uint64, float64) error
	ReplaceAllCounts([]uint64, []float64) error
} = (*CountStore)(nil)
