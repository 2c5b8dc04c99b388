package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/zipf"
)

// TestWideCountTracker measures ROADMAP item 2(c)'s open gap: the
// tracker attack on query-set-size limits, through the shield. The
// fixture is 1,000 tuples with a 16-bit value v, popularity learned from
// a Zipf(1) trace of point reads on a simulated clock, and a target k.
// The tracker binary-searches v_k with pairs of COUNTs over a 100-key
// window around k, one with id != k: each has more than NarrowCandidates
// candidates, so it is wide and charged only the tuples it counts, and
// their difference says whether v_k < m. It recovers v_k in 32
// statements (16 bits, two each) and is billed what the log reports, next
// to the point read of k it replaces. Nothing here is fixed: the test
// pins the statement count and records the bill.
//
// Two cases. cold: k is a tuple the trace never read, priced at the cap,
// in the window of the 100 keys around it. hot: the window is the trace's
// hot head, ids 0–99, and k the least-read tuple in it, so the counted
// neighbours are the cheapest tuples there are.
func TestWideCountTracker(t *testing.T) {
	const tuples, bits, trace, window = 1000, 16, 10000, 100
	const capDelay = time.Second
	for _, hot := range []bool{false, true} {
		name := map[bool]string{false: "cold", true: "hot"}[hot]
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(revealSeed))
			vals := make([]int, tuples)
			for k := range vals {
				vals[k] = rng.Intn(1 << bits)
			}
			db, err := engine.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if _, err := db.Exec(`CREATE TABLE items (id INT PRIMARY KEY, v INT)`); err != nil {
				t.Fatal(err)
			}
			for lo := 0; lo < tuples; lo += 500 {
				var rows []string
				for k := lo; k < lo+500; k++ {
					rows = append(rows, fmt.Sprintf("(%d, %d)", k, vals[k]))
				}
				if _, err := db.Exec(`INSERT INTO items VALUES ` + strings.Join(rows, ", ")); err != nil {
					t.Fatal(err)
				}
			}
			s, err := New(db, Config{N: tuples, Alpha: 1, Beta: 2, Cap: capDelay, Clock: simClock()})
			if err != nil {
				t.Fatal(err)
			}
			// Rank r is id r-1: the low ids are the popular ones.
			d, err := zipf.New(tuples, 1)
			if err != nil {
				t.Fatal(err)
			}
			smp := zipf.NewSampler(d, revealSeed)
			reads := make([]int, tuples)
			for range trace {
				id := smp.Next() - 1
				reads[id]++
				if _, _, err := s.Query("legit", fmt.Sprintf(`SELECT * FROM items WHERE id = %d`, id)); err != nil {
					t.Fatal(err)
				}
			}
			k, lo := -1, 0
			if hot {
				for id := 0; id < window; id++ {
					if k < 0 || reads[id] < reads[k] {
						k = id
					}
				}
			} else {
				for id := tuples - window/2; id >= window/2; id-- {
					if reads[id] == 0 && s.QuoteExtraction([]uint64{uint64(id)}) == capDelay {
						k, lo = id, id-window/2
						break
					}
				}
			}
			if k < 0 {
				t.Fatal("no target")
			}
			hi := lo + window - 1
			point := s.QuoteExtraction([]uint64{uint64(k)})
			distinct := 0
			for _, r := range reads {
				if r > 0 {
					distinct++
				}
			}

			count := func(sql string) (int64, time.Duration) {
				t.Helper()
				res, st, err := s.Query("tracker", sql)
				if err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
				return res.Rows[0][0].Int, st.Delay
			}
			var statements int
			var bill time.Duration
			below, above := 0, 1<<bits // v_k is in [below, above)
			for above-below > 1 {
				m := (below + above) / 2
				with, d1 := count(fmt.Sprintf(`SELECT COUNT(*) FROM items WHERE id BETWEEN %d AND %d AND v < %d`, lo, hi, m))
				without, d2 := count(fmt.Sprintf(`SELECT COUNT(*) FROM items WHERE id BETWEEN %d AND %d AND id != %d AND v < %d`, lo, hi, k, m))
				statements += 2
				bill += d1 + d2
				if with-without == 1 {
					above = m
				} else {
					below = m
				}
			}
			if below != vals[k] {
				t.Fatalf("the tracker recovered v_%d = %d, want %d", k, below, vals[k])
			}
			if statements != 2*bits {
				t.Fatalf("the tracker took %d statements, want %d", statements, 2*bits)
			}
			t.Logf("%d point reads touched %d of %d tuples; tuple %d (read %d times, point price %v): v = %d recovered in %d wide COUNTs over keys %d–%d, billed %v in all (%.2f times the point price)",
				trace, distinct, tuples, k, reads[k], point, below, statements, lo, hi, bill, float64(bill)/float64(point))
		})
	}
}
