package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"testing"
	"time"
)

// goldenCappedPrices holds the FNV-64a of the QueryStats.Delay sequence of
// the stream below, recorded on the commit before the rank index stopped
// keeping positions past the cap rank. TestGoldenPriceSequence is
// rank-sensitive, so its cap rarely binds; here it binds for about half
// of the charged tuples, so a tuple wrongly priced on either side of the
// cap rank changes the hash.
var goldenCappedPrices = map[string]uint64{
	"decay=1":     0xea81be5dc98121c4, // 576 of 1037 point reads capped
	"decay=1.003": 0x73efcd84769a602,  // 590 of 1037 point reads capped
}

// TestGoldenCappedPriceSequence replays a fixed-seed stream of point reads,
// range scans, updates, inserts and deletes through Shield.QueryCtx under
// a popularity policy whose cap rank sits in the middle of the traffic.
// At δ = 1.003 fresh increments outgrow old counts, so recently read
// tuples keep climbing past tuples read long ago, and the stream crosses
// a renormalisation.
func TestGoldenCappedPriceSequence(t *testing.T) {
	const rows, statements = 12_000, 2400
	// Decay shrinks every count but the recent ones, and fmax with them,
	// so the decaying stream needs a longer cap for the same cap rank.
	for _, c := range []struct {
		decay float64
		cap   time.Duration
	}{{1, 1000 * time.Second}, {1.003, 300_000 * time.Second}} {
		decay, cap := c.decay, c.cap
		golden := fmt.Sprintf("decay=%v", decay)
		t.Run(golden, func(t *testing.T) {
			db := testDB(t, rows)
			s, err := New(db, Config{
				N: rows, Alpha: 1, Beta: 2, Cap: cap,
				DecayRate: decay, Clock: simClock(),
			})
			if err != nil {
				t.Fatal(err)
			}
			// Learned counts for every other row, so the tracker starts far
			// larger than the cap rank.
			rng := rand.New(rand.NewSource(20040901))
			var ids []uint64
			var counts []float64
			for id := 0; id < rows; id += 2 {
				ids = append(ids, uint64(id))
				counts = append(counts, float64(1+rng.Intn(4))+float64(id%5)/8)
			}
			if err := s.LoadCounts(func() ([]uint64, []float64, error) { return ids, counts, nil }); err != nil {
				t.Fatal(err)
			}

			h := fnv.New64a()
			var buf [8]byte
			capped, below := 0, 0
			next := rows
			hot := func() int { u := rng.Float64(); return int(float64(rows) * u * u * u * u) }
			for i := 0; i < statements; i++ {
				var sql string
				point := false
				switch p := rng.Intn(100); {
				case p < 50:
					sql, point = fmt.Sprintf(`SELECT * FROM items WHERE id = %d`, hot()), true
				case p < 78:
					span := []int{10, 100, 400}[rng.Intn(3)]
					a := hot()
					sql = fmt.Sprintf(`SELECT * FROM items WHERE id BETWEEN %d AND %d`, a, a+span-1)
				case p < 90:
					sql = fmt.Sprintf(`UPDATE items SET payload = 'u%d' WHERE id = %d`, i, hot())
				case p < 95:
					sql = fmt.Sprintf(`DELETE FROM items WHERE id = %d`, hot())
				default:
					sql = fmt.Sprintf(`INSERT INTO items VALUES (%d, 'n%d')`, next, i)
					next++
				}
				_, qs, err := s.QueryCtx(context.Background(), "golden", sql)
				if err != nil {
					t.Fatalf("statement %d %q: %v", i, sql, err)
				}
				binary.LittleEndian.PutUint64(buf[:], uint64(qs.Delay))
				h.Write(buf[:])
				// Point reads sample the charged tuples: one tuple each, at
				// the cap or below it.
				if point && qs.Tuples == 1 {
					if qs.Delay == cap {
						capped++
					} else {
						below++
					}
				}
			}
			// Both sides of the cap rank must carry weight, or a rank
			// wrongly capped (or wrongly exact) would hash the same.
			if n := capped + below; capped < n/4 || below < n/4 {
				t.Fatalf("%d of %d point reads at the cap: want between a quarter and three quarters", capped, n)
			}
			// The stream must move the rank index's horizon (ostree), so
			// that the hash covers ids on both sides of it.
			if tr := s.Tracker(); tr.HorizonResets() == 0 || tr.Ranked() == tr.Len() {
				t.Fatalf("horizon resets %d, %d of %d ids ranked: the stream never set a horizon", tr.HorizonResets(), tr.Ranked(), tr.Len())
			}
			got := h.Sum64()
			if os.Getenv("GOLDEN_PRICES_PRINT") != "" {
				fmt.Printf("\t%q: %#x, // %d of %d point reads capped\n", golden, got, capped, capped+below)
				return
			}
			if want := goldenCappedPrices[golden]; got != want {
				t.Fatalf("delay sequence hash %#x, recorded %#x: a price changed", got, want)
			}
		})
	}
}
