package cluster

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/delay"
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
			nodes[i] = localNode(t, fmt.Sprintf("shard-%d", i), h)
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

// routerLeg pins one principal's clock across a router: its 64 concurrent
// cold point reads through a partitioned router whose shards share one
// clock, by shard count. billed sums the replies' delay_millis (64 reads
// at the 1 s cap); elapsed runs from the first request to the last
// reply. Each shard keeps its own clock for the principal and serves
// only the reads that route to it, so the shards' waits overlap and the
// elapsed time is the busiest shard's share. One edge that owns the
// principal's clock makes every elapsed equal its billed.
var routerLeg = map[int]struct{ billed, elapsed time.Duration }{
	1: {64 * time.Second, 64 * time.Second},
	4: {64 * time.Second, 23 * time.Second},
}

// TestRouterLegOverlaps measures the gap between what one principal's
// concurrent point reads charge through the router and how long they
// take.
func TestRouterLegOverlaps(t *testing.T) {
	const reads = delay.PrincipalWaitCap
	for _, shards := range []int{1, 4} {
		clock := vclock.NewSimulated(time.Date(2004, 8, 1, 0, 0, 0, 0, time.UTC))
		nodes := make([]*Node, shards)
		for i := range nodes {
			h, _ := capShardOn(t, 1000, clock)
			nodes[i] = localNode(t, fmt.Sprintf("shard-%d", i), h)
		}
		r, err := NewRouter(nodes, Config{Partitions: DefaultPartitions})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.ExecScript(insertItems(0, 999)); err != nil {
			t.Fatal(err)
		}
		clock.SetBlocking(true)
		h := r.Handler()

		first := clock.Now()
		var (
			mu       sync.Mutex
			billed   time.Duration
			last     time.Time
			finished atomic.Int64
		)
		for id := 1; id <= reads; id++ {
			go func() {
				defer finished.Add(1)
				resp, body := query(t, h, "robot", fmt.Sprintf("SELECT * FROM items WHERE id = %d", id))
				if resp.StatusCode != http.StatusOK {
					t.Errorf("read %d: HTTP %d: %s", id, resp.StatusCode, body)
					return
				}
				left := clock.Now()
				d := time.Duration(decodeQuery(t, body).DelayMillis * float64(time.Millisecond))
				mu.Lock()
				billed += d
				last = maxTime(last, left)
				mu.Unlock()
			}()
		}
		// Once every read is parked, move time on one cap at a time, each
		// step only after the reads it woke have left.
		deadline := time.Now().Add(10 * time.Second)
		for finished.Load() < reads {
			if time.Now().After(deadline) {
				t.Fatalf("%d shard(s): %d reads parked, %d finished", shards, clock.Waiters(), finished.Load())
			}
			if int64(clock.Waiters())+finished.Load() == reads && clock.Waiters() > 0 {
				clock.Advance(time.Second)
				continue
			}
			time.Sleep(time.Millisecond)
		}
		elapsed := last.Sub(first)
		t.Logf("%d shard(s): billed %v, elapsed %v", shards, billed, elapsed)
		if want := routerLeg[shards]; billed != want.billed || elapsed != want.elapsed {
			t.Errorf("%d shard(s): billed %v elapsed %v, pinned %v and %v", shards, billed, elapsed, want.billed, want.elapsed)
		}
	}
}

func maxTime(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}

// capShard is newShard with a 1 s cap and no counts learned: every tuple
// is priced at the cap.
func capShard(t *testing.T, catalogN int) (http.Handler, *core.Shield) {
	t.Helper()
	return capShardOn(t, catalogN, vclock.NewSimulated(time.Date(2004, 8, 1, 0, 0, 0, 0, time.UTC)))
}

// capShardOn is capShard on the given clock.
func capShardOn(t *testing.T, catalogN int, clock vclock.Clock) (http.Handler, *core.Shield) {
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
		N: catalogN, Alpha: 1, Beta: 2, Cap: time.Second, Clock: clock,
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
