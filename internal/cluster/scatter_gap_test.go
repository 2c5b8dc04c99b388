package cluster

import (
	"fmt"
	"net/http"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/vclock"
)

// scatterBill pins the delay_millis one principal's full scan of 1,000
// cold tuples is answered with, by shard count, against the single
// node's 1,000,000 (every tuple at the 1 s cap). Each shard sleeps its
// own leg and the router relays the largest leg's delay
// (mergeReplies), so the client waits for the slowest leg, not the sum:
// a 4-shard scan's reply says 404 s. One edge that sums the legs'
// charges and waits once makes every entry 1,000,000 and this an
// equality.
var scatterBill = map[int]float64{
	1: 1_000_000,
	4: 404_000,
	8: 184_000,
}

// TestScatterBillGap measures the gap between what a scatter charges
// and what its client waits for.
func TestScatterBillGap(t *testing.T) {
	const tuples = 1000
	single, shield := capShard(t, tuples)
	load := insertItems(0, tuples-1)
	if _, err := shield.DB().Exec(load); err != nil {
		t.Fatal(err)
	}
	if got := scanMillis(t, single); got != 1_000_000 {
		t.Fatalf("single node: delay_millis %v, want 1,000,000 (1,000 cold tuples at the 1 s cap)", got)
	}
	for _, shards := range []int{1, 4, 8} {
		nodes := make([]*Node, shards)
		for i := range nodes {
			h, _ := capShard(t, tuples)
			nodes[i] = NewLocalNode(fmt.Sprintf("shard-%d", i), h)
		}
		r, err := NewRouter(nodes, Config{Partitions: max(DefaultPartitions, 16*shards)})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.ExecScript(load); err != nil {
			t.Fatal(err)
		}
		got := scanMillis(t, r.Handler())
		t.Logf("%d shard(s): delay_millis %v (single node 1,000,000)", shards, got)
		if want := scatterBill[shards]; got != want {
			t.Errorf("%d shard(s): delay_millis %v, pinned %v", shards, got, want)
		}
	}
}

// capShard is newShard with a 1 s cap and no counts learned: every tuple
// is priced at the cap.
func capShard(t *testing.T, catalogN int) (http.Handler, *core.Shield) {
	t.Helper()
	db, err := engine.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := db.Exec(`CREATE TABLE items (id INT PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	shield, err := core.New(db, core.Config{
		N: catalogN, Alpha: 1, Beta: 2, Cap: time.Second,
		Clock: vclock.NewSimulated(time.Date(2004, 8, 1, 0, 0, 0, 0, time.UTC)),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(shield)
	if err != nil {
		t.Fatal(err)
	}
	return srv.Handler(), shield
}

// scanMillis is the delay_millis of one principal's SELECT * FROM items.
func scanMillis(t *testing.T, h http.Handler) float64 {
	t.Helper()
	resp, body := query(t, h, "scanner", "SELECT * FROM items")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scan: HTTP %d: %s", resp.StatusCode, body)
	}
	return decodeQuery(t, body).DelayMillis
}
