package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestWALRecoversAfterCrash simulates a crash by abandoning a database
// whose dirty pages never reached the data file, then reopening the
// directory: the WAL must restore every committed statement.
func TestWALRecoversAfterCrash(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, WithWAL(false), WithPoolPages(1024))
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v TEXT)`)
	for i := 0; i < 200; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO t VALUES (%d, 'row-%d')`, i, i))
	}
	mustExec(t, db, `UPDATE t SET v = 'patched' WHERE id = 42`)
	mustExec(t, db, `DELETE FROM t WHERE id = 199`)
	// Crash: no Close, no flush. The pool (1024 pages) still holds
	// everything; the data file has only what allocation wrote.
	db = nil

	db2, err := Open(dir, WithWAL(false))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	all := mustExec(t, db2, `SELECT * FROM t`)
	if len(all.Rows) != 199 {
		t.Fatalf("recovered %d rows, want 199", len(all.Rows))
	}
	r := mustExec(t, db2, `SELECT v FROM t WHERE id = 42`)
	if len(r.Rows) != 1 || r.Rows[0][0].Str != "patched" {
		t.Fatalf("update lost: %v", r.Rows)
	}
	if r := mustExec(t, db2, `SELECT * FROM t WHERE id = 199`); len(r.Rows) != 0 {
		t.Fatal("delete lost")
	}
}

// TestWALCrashWithoutWALLosesData is the control: the same crash without
// a WAL loses the unflushed rows, proving the recovery test is actually
// exercising the log.
func TestWALCrashWithoutWALLosesData(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, WithPoolPages(1024))
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v TEXT)`)
	for i := 0; i < 200; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO t VALUES (%d, 'row-%d')`, i, i))
	}
	db = nil

	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	all := mustExec(t, db2, `SELECT * FROM t`)
	if len(all.Rows) >= 200 {
		t.Fatalf("no-WAL crash kept all %d rows; control invalid", len(all.Rows))
	}
}

// TestWALTornTailAfterCrash: chop the WAL mid-batch before reopening —
// the prefix must recover and the torn batch must vanish without error.
func TestWALTornTailAfterCrash(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, WithWAL(false), WithPoolPages(1024))
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY)`)
	for i := 0; i < 50; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO t VALUES (%d)`, i))
	}
	db = nil

	walPath := filepath.Join(dir, "t.tbl.wal")
	st, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, st.Size()-100); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, WithWAL(false))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	all := mustExec(t, db2, `SELECT * FROM t`)
	if len(all.Rows) == 0 || len(all.Rows) >= 50 {
		t.Fatalf("torn recovery rows = %d, want a proper prefix", len(all.Rows))
	}
}

// TestWALCleanCloseTruncatesLog: a clean shutdown flushes pages and empties
// the log, so reopening does no replay work.
func TestWALCleanCloseTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, WithWAL(false))
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY)`)
	mustExec(t, db, `INSERT INTO t VALUES (1)`)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(filepath.Join(dir, "t.tbl.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != 0 {
		t.Fatalf("wal size after clean close = %d", st.Size())
	}
	db2, err := Open(dir, WithWAL(false))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if r := mustExec(t, db2, `SELECT * FROM t`); len(r.Rows) != 1 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
}

// TestWALCheckpointBoundsLogSize: a long mutation stream must not grow
// the log without bound.
func TestWALCheckpointBoundsLogSize(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, WithWAL(false), WithPoolPages(8))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, pad TEXT)`)
	// Enough mutations that naive logging would exceed the checkpoint
	// threshold many times over.
	for i := 0; i < 3000; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO t VALUES (%d, 'xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx')`, i))
	}
	st, err := os.Stat(filepath.Join(dir, "t.tbl.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() > 2*walCheckpointBytes {
		t.Fatalf("wal grew to %d bytes despite checkpointing", st.Size())
	}
	// Data still intact.
	if r := mustExec(t, db, `SELECT * FROM t WHERE id = 2999`); len(r.Rows) != 1 {
		t.Fatal("row lost across checkpoints")
	}
}

// TestWALDropTableRemovesLog verifies DROP TABLE cleans up the log file.
func TestWALDropTableRemovesLog(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, WithWAL(false))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY)`)
	mustExec(t, db, `INSERT INTO t VALUES (1)`)
	mustExec(t, db, `DROP TABLE t`)
	if _, err := os.Stat(filepath.Join(dir, "t.tbl.wal")); !os.IsNotExist(err) {
		t.Fatalf("wal file survives drop: %v", err)
	}
}

// TestWALSyncedMode exercises the fsync-per-commit configuration.
func TestWALSyncedModeEngine(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, WithWAL(true))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY)`)
	mustExec(t, db, `INSERT INTO t VALUES (1)`)
	if r := mustExec(t, db, `SELECT * FROM t`); len(r.Rows) != 1 {
		t.Fatal("row missing in synced mode")
	}
}

// TestSingleRowWriteLogsItsChange: once a checkpoint has emptied the log,
// a page's first single-row UPDATE logs the page's image and its second
// logs only the bytes it changed: a patch of one 4-byte run (11-byte
// header, 4-byte run header, the bytes) plus the commit byte.
func TestSingleRowWriteLogsItsChange(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, WithWAL(false))
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v TEXT)`)
	for i := 0; i < 20; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO t VALUES (%d, 'aaaa')`, i))
	}
	// Close checkpoints, and the reopened log starts empty.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(dir, WithWAL(false)); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tbl, err := db.getTable("t")
	if err != nil {
		t.Fatal(err)
	}
	appended := func(sql string) int64 {
		t.Helper()
		before := tbl.wal.Size()
		mustExec(t, db, sql)
		return tbl.wal.Size() - before
	}
	if n := appended(`UPDATE t SET v = 'bbbb' WHERE id = 3`); n != 4096+9+1 {
		t.Fatalf("first UPDATE after the checkpoint appended %d bytes, want the page's image (4106)", n)
	}
	const patch = 11 + 4 + 4 + 1
	if n := appended(`UPDATE t SET v = 'cccc' WHERE id = 7`); n != patch || n > 256 {
		t.Fatalf("second UPDATE of the page appended %d bytes, want a %d-byte patch", n, patch)
	}
	if r := mustExec(t, db, `SELECT v FROM t WHERE id = 7`); len(r.Rows) != 1 || r.Rows[0][0].Str != "cccc" {
		t.Fatalf("row 7 reads %v", r.Rows)
	}
}
