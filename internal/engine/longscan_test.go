package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/storage"
)

// TestLongScanNeverFailsAWrite: at the default pool size, a full scan
// held open between rows keeps every page version it can see, so the
// frames writers publish to stay resident until it ends. Writers that
// UPDATE distinct pages meanwhile fill the pool's stripes with such
// frames; a writer's miss must then wait for the scan to end rather than
// fail, and every write succeeds. The scan itself never fails either: it
// reads the pages the pool does not hold around it, needing no frame.
func TestLongScanNeverFailsAWrite(t *testing.T) {
	const rows, perBatch = 12000, 100
	db := testDB(t, withScanWorkers(1))
	markConcurrent(t, db)
	mustExec(t, db, `CREATE TABLE items (id INT PRIMARY KEY, pad TEXT)`)
	pad := strings.Repeat("p", 200)
	for i := 0; i < rows; i += perBatch {
		var vals []string
		for j := i; j < i+perBatch; j++ {
			vals = append(vals, fmt.Sprintf("(%d, '%s')", j, pad))
		}
		mustExec(t, db, `INSERT INTO items VALUES `+strings.Join(vals, ", "))
	}
	tbl, err := db.getTable("items")
	if err != nil {
		t.Fatal(err)
	}
	if n := tbl.heap.NumPages(); n < 2*DefaultPoolPages {
		t.Fatalf("heap of %d pages does not outgrow the %d-page pool", n, DefaultPoolPages)
	}

	started, release := make(chan struct{}), make(chan struct{})
	scanned := make(chan error, 1)
	go func() {
		tbl.mu.RLock()
		defer tbl.mu.RUnlock()
		first := true
		scanned <- db.fullScan(tbl, nil, nil, func(storage.RID, catalog.Row, []byte) (bool, error) {
			if first {
				first = false
				close(started)
				<-release
			}
			return true, nil
		})
	}()
	<-started

	// One row on each page, split between two writers.
	const perPage = 17
	var wg sync.WaitGroup
	errs := make(chan error, rows/perPage+1)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w * perPage; k < rows; k += 2 * perPage {
				if _, err := db.Exec(fmt.Sprintf(`UPDATE items SET pad = 'u%d' WHERE id = %d`, k, k)); err != nil {
					errs <- fmt.Errorf("UPDATE of id %d: %w", k, err)
				}
			}
		}(w)
	}
	// 300 ms lets the writers publish to more pages than the pool holds,
	// filling its stripes with frames the scan's snapshot keeps, and is
	// well inside the miss's 5 s wait bound. A miss that failed instead
	// of waiting fails its UPDATE in this window.
	time.Sleep(300 * time.Millisecond)
	close(release)
	serr := <-scanned
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if serr != nil {
		t.Fatalf("the held scan failed: %v", serr)
	}
	res := mustExec(t, db, `SELECT COUNT(*) FROM items WHERE pad = '`+pad+`'`)
	if got, want := res.Rows[0][0].Int, int64(rows-(rows+perPage-1)/perPage); got != want {
		t.Fatalf("%d rows unwritten, want %d", got, want)
	}
}
