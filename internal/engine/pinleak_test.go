package engine

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/storage"
)

// TestNoPinLeaksAcrossStatementKinds audits pin/unpin balance on every
// executor path that can terminate a scan early: LIMIT on full scans
// (sequential and parallel), LIMIT on index ranges, mid-scan evaluation
// errors, impossible plans, DML, and aggregates. mustExec already
// asserts PinnedFrames()==0 after each statement; this test adds the
// paths that exit through errors, which mustExec never sees.
func TestNoPinLeaksAcrossStatementKinds(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			db := testDB(t, WithScanWorkers(workers))
			loadWideTable(t, db, 1200)

			stmts := []string{
				`SELECT * FROM wide LIMIT 1`,
				`SELECT id FROM wide WHERE grp = 4 LIMIT 3`,
				`SELECT id FROM wide WHERE id BETWEEN 100 AND 110 LIMIT 2`,
				`SELECT id FROM wide WHERE id = 7`,
				`SELECT COUNT(*), AVG(id) FROM wide WHERE grp < 3`,
				`SELECT id FROM wide WHERE id = 1 AND id = 2`,
				`SELECT id FROM wide ORDER BY grp DESC LIMIT 9`,
				`UPDATE wide SET grp = 99 WHERE id = 42`,
				`DELETE FROM wide WHERE id = 43`,
				`INSERT INTO wide VALUES (9999, 0, 'late')`,
			}
			for _, s := range stmts {
				mustExec(t, db, s)
			}

			// Error exits: the scan aborts partway through a page with
			// frames pinned; the abort path must still unpin them.
			failing := []string{
				`SELECT id FROM wide WHERE pad > 5`,
				`SELECT SUM(pad) FROM wide`,
				`SELECT nosuch FROM wide`,
				`UPDATE wide SET grp = 1 WHERE pad < 10`,
				`DELETE FROM wide WHERE pad >= 3`,
			}
			for _, s := range failing {
				if _, err := db.Exec(s); err == nil {
					t.Fatalf("%s: expected error", s)
				}
				if n := db.PinnedFrames(); n != 0 {
					t.Fatalf("%s: %d frames left pinned after error", s, n)
				}
			}
		})
	}
}

// TestStatementLargerThanPool names the limit the write path has: a write
// set pins every page it touches until it commits, so a statement that
// writes more pages than the pool holds cannot run. It must fail as that
// limit — not as a disk failure, which would latch the shield degraded —
// publish nothing, leak no pin, and leave the table writable.
func TestStatementLargerThanPool(t *testing.T) {
	db := testDB(t, WithPoolPages(16), WithWAL(false))
	mustExec(t, db, `CREATE TABLE big (id INT PRIMARY KEY, pad TEXT)`)
	pad := strings.Repeat("x", 200)
	for i := 0; i < 2000; i += 10 { // 2,000 × 200-byte rows: ~110 pages
		var vals []string
		for j := i; j < i+10; j++ {
			vals = append(vals, fmt.Sprintf("(%d, '%s')", j, pad))
		}
		mustExec(t, db, `INSERT INTO big VALUES `+strings.Join(vals, ", "))
	}
	_, err := db.Exec(`UPDATE big SET pad = 'y' WHERE id >= 0`)
	if !errors.Is(err, storage.ErrPoolExhausted) || errors.Is(err, storage.ErrIO) {
		t.Fatalf("UPDATE of every page through a 16-page pool: err = %v, want ErrPoolExhausted and not ErrIO", err)
	}
	for _, want := range []string{"16-page pool", "WithPoolPages"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not say %q", err, want)
		}
	}
	if n := db.PinnedFrames(); n != 0 {
		t.Fatalf("%d frames left pinned by the failed statement", n)
	}
	if res := mustExec(t, db, `SELECT COUNT(*) FROM big WHERE pad = 'y'`); res.Rows[0][0].Int != 0 {
		t.Fatalf("the failed UPDATE published %d rows", res.Rows[0][0].Int)
	}
	if res := mustExec(t, db, `UPDATE big SET pad = 'z' WHERE id < 5`); res.Affected != 5 {
		t.Fatalf("a small write after the failed one touched %d rows, want 5", res.Affected)
	}
	if res := mustExec(t, db, `SELECT COUNT(*) FROM big`); res.Rows[0][0].Int != 2000 {
		t.Fatalf("table holds %d rows, want 2000", res.Rows[0][0].Int)
	}
}
