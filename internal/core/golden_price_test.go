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

// goldenPrices holds the FNV-64a of the QueryStats.Delay sequence the
// fixed-seed stream below produced on the commit before the rank index
// became array-backed (the pointer treap, PR 11). The defense contract
// of ROADMAP aim 3: an index change never changes a price. A change that
// legitimately reprices (a new formula, a new observation rule) records
// new values with GOLDEN_PRICES_PRINT=1; a change to the index, the
// tracker plumbing or the price cache must reproduce these.
var goldenPrices = map[string]uint64{
	"popularity/decay=1":    0x2112e17430723cfc,
	"popularity/decay=1.01": 0x4a184d96c9e612b4,
	// The update tracker is fed by ObserveNoDecay and never ticks, so δ
	// does not reach its prices.
	"updaterate/decay=1":    0x734c38ffac4444c4,
	"updaterate/decay=1.01": 0x734c38ffac4444c4,
}

// TestGoldenPriceSequence replays one fixed-seed stream of point reads,
// range scans, updates, inserts and deletes through Shield.QueryCtx for
// every (policy, δ, price cache) combination and compares the hash of
// the exact delay sequence with the recorded one (a lag-0 price cache is
// exact, so cache on and off share a hash). At δ = 1.01 the stream
// observes enough tuples (> 23,140) to cross a renormalisation.
func TestGoldenPriceSequence(t *testing.T) {
	const rows, statements = 2000, 2600
	for _, kind := range []PolicyKind{ByPopularity, ByUpdateRate} {
		for _, decay := range []float64{1, 1.01} {
			for _, cache := range []int{0, 512} {
				kindName, cacheName := "popularity", "off"
				if kind == ByUpdateRate {
					kindName = "updaterate"
				}
				if cache > 0 {
					cacheName = "on"
				}
				golden := fmt.Sprintf("%s/decay=%v", kindName, decay)
				t.Run(golden+"/cache="+cacheName, func(t *testing.T) {
					db := testDB(t, rows)
					s, err := New(db, Config{
						Kind: kind, N: rows, Alpha: 1, Beta: 0.5, C: 1e-4, Cap: time.Minute,
						DecayRate: decay, Clock: simClock(), PriceCacheSize: cache,
					})
					if err != nil {
						t.Fatal(err)
					}
					// A restarted node's learned counts: distinct ids, heavy
					// ties (integer counts) next to fractional ones.
					rng := rand.New(rand.NewSource(20040831))
					var ids []uint64
					var counts []float64
					for id := 0; id < rows; id += 3 {
						ids = append(ids, uint64(id))
						c := float64(1 + rng.Intn(6))
						if id%7 == 0 {
							c += rng.Float64()
						}
						counts = append(counts, c)
					}
					if err := s.LoadCounts(func() ([]uint64, []float64, error) { return ids, counts, nil }); err != nil {
						t.Fatal(err)
					}
					if up := s.UpdatePolicy(); up != nil {
						if err := up.Tracker().Import(ids, counts); err != nil {
							t.Fatal(err)
						}
					}

					h := fnv.New64a()
					var buf [8]byte
					selects, distinct := 0, map[time.Duration]bool{}
					next := rows
					hot := func() int { u := rng.Float64(); return int(float64(rows) * u * u * u) }
					for i := 0; i < statements; i++ {
						var sql string
						switch p := rng.Intn(100); {
						case p < 40:
							sql = fmt.Sprintf(`SELECT * FROM items WHERE id = %d`, hot())
						case p < 70:
							span := []int{5, 40, 150}[rng.Intn(3)]
							a := rng.Intn(rows)
							sql = fmt.Sprintf(`SELECT * FROM items WHERE id BETWEEN %d AND %d`, a, a+span-1)
						case p < 88:
							sql = fmt.Sprintf(`UPDATE items SET payload = 'u%d' WHERE id = %d`, i, hot())
						case p < 94:
							sql = fmt.Sprintf(`DELETE FROM items WHERE id = %d`, rng.Intn(rows))
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
						if qs.Tuples > 0 {
							selects++
							distinct[qs.Delay] = true
						}
					}
					// The stream must be rank-sensitive: were most tuples priced
					// at the cap, a wrong rank would hash the same.
					if len(distinct) < selects*3/4 {
						t.Fatalf("%d distinct delays over %d SELECTs: the stream sits at the cap", len(distinct), selects)
					}
					got := h.Sum64()
					if os.Getenv("GOLDEN_PRICES_PRINT") != "" {
						fmt.Printf("\t%q: %#x,\n", t.Name(), got)
						return
					}
					if want := goldenPrices[golden]; got != want {
						t.Fatalf("delay sequence hash %#x, recorded %#x: a price changed", got, want)
					}
				})
			}
		}
	}
}
