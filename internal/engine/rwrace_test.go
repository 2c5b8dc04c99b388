package engine

import (
	"fmt"
	"sync"
	"testing"
)

// TestSelectUpdatePageByteRace is the regression test for the reader/
// writer model. Before table.mu became an RWMutex with readers holding
// it shared, execSelect walked page bytes with no table lock at all
// while execUpdate rewrote records in place on the same pinned frames —
// a data race on the page byte slices that -race catches reliably.
// The test hammers full scans, point lookups, and aggregates against a
// writer updating the same rows; it must run clean under -race and
// every read must observe a consistent row count.
func TestSelectUpdatePageByteRace(t *testing.T) {
	db := testDB(t, withScanWorkers(4))
	loadWideTable(t, db, 600)

	const readers = 3
	var wg sync.WaitGroup
	stop := make(chan struct{})

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < 150; i++ {
			q := fmt.Sprintf(`UPDATE wide SET pad = 'rewritten-%d', grp = %d WHERE id = %d`,
				i, i%7, (i*37)%600)
			if _, err := db.Exec(q); err != nil {
				t.Errorf("update: %v", err)
				return
			}
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var q string
				switch (i + r) % 3 {
				case 0:
					q = `SELECT * FROM wide WHERE grp = 3`
				case 1:
					q = fmt.Sprintf(`SELECT pad FROM wide WHERE id = %d`, (i*13)%600)
				default:
					q = `SELECT COUNT(*), MAX(id) FROM wide`
				}
				res, err := db.Exec(q)
				if err != nil {
					t.Errorf("read %q: %v", q, err)
					return
				}
				if (i+r)%3 == 2 && res.Rows[0][0].Int != 600 {
					t.Errorf("count = %v, want 600", res.Rows[0][0])
					return
				}
			}
		}(r)
	}
	wg.Wait()
}
