package engine

import (
	"fmt"
	"testing"

	"repro/internal/fault"
)

// TestWALFailureRollsBackEveryWrite: a write whose log append fails has
// rolled back, whatever the statement. INSERT, UPDATE and DELETE run
// through one lifecycle (Database.write), so each must leave the rows,
// the primary and secondary indexes, the pins and the key claims as they
// were.
func TestWALFailureRollsBackEveryWrite(t *testing.T) {
	db := testDB(t, WithWAL(false), WithPoolPages(64))
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, grp INT, v TEXT)`)
	mustExec(t, db, `CREATE INDEX by_grp ON t (grp)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 10, 'a'), (2, 10, 'b'), (3, 20, 'c')`)
	// dump reads every access path: the heap, the primary key and the
	// secondary index.
	dump := func() string {
		var out string
		for _, q := range []string{
			`SELECT * FROM t`,
			`SELECT * FROM t WHERE id >= 0 AND id <= 9`,
			`SELECT * FROM t WHERE grp = 10`,
			`SELECT * FROM t WHERE grp = 20`,
		} {
			out += fmt.Sprint(mustExec(t, db, q).Rows, "\n")
		}
		return out
	}
	before := dump()
	for _, stmt := range []string{
		`INSERT INTO t VALUES (4, 10, 'd'), (5, 20, 'e')`,
		`UPDATE t SET id = 7, grp = 20 WHERE id = 2`,
		`UPDATE t SET v = 'z' WHERE grp = 10`,
		`DELETE FROM t WHERE grp = 10`,
	} {
		fault.Enable(fault.NewRegistry(1).Add(fault.Rule{Site: fault.WALAppend, Kind: fault.Error, Every: 1}))
		_, err := db.Exec(stmt)
		fault.Disable()
		if err == nil {
			t.Fatalf("%s: committed through a failing log", stmt)
		}
		if n := db.PinnedFrames(); n != 0 {
			t.Fatalf("%s: %d frames left pinned after the rollback", stmt, n)
		}
		if got := dump(); got != before {
			t.Fatalf("%s: rows after the rollback\n%s\nwant\n%s", stmt, got, before)
		}
	}
	// The rolled-back statements released the keys they claimed.
	mustExec(t, db, `INSERT INTO t VALUES (4, 10, 'd'), (5, 20, 'e')`)
	mustExec(t, db, `UPDATE t SET id = 7 WHERE id = 2`)
	if got := mustExec(t, db, `SELECT id FROM t WHERE grp = 10`).Rows; len(got) != 3 {
		t.Fatalf("after the retries grp 10 holds %v, want ids 1, 4 and 7", got)
	}
}
