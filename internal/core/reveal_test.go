package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
)

// revealSeed draws the fixture's values and every statement of
// TestRevealedVersusCharged; a failure names the seed and the statement,
// and the same seed replays the same run.
const revealSeed = 20040902

// revealGap pins, per statement shape, how many (statement, tuple) pairs
// of the seeded run are revealed by the reply but not charged: the
// "no" answers and write replies a binary search reads for free. Point
// and range SELECTs with no residual filter must stay at 0. A change
// that charges every tuple a reply depends on lowers the others and
// records the new values here.
var revealGap = map[string]int{
	"point":    0,
	"range":    0,
	"count":    10,
	"minmax":   0,
	"topn":     22,
	"update":   29,
	"delete":   35,
	"rejected": 8,
}

// revealShapes is the order the table prints in.
var revealShapes = []string{"point", "range", "count", "minmax", "topn", "update", "delete", "rejected"}

// revealStatement draws one statement of the shape over the 64 tuples
// whose values are vals. A residual predicate compares v with a
// threshold; the rejected shape's threshold is its own tuple's value, on
// the side that rejects the row.
func revealStatement(rng *rand.Rand, shape string, vals []int) string {
	n := len(vals)
	lo := rng.Intn(n)
	hi := min(n-1, lo+3+rng.Intn(13))
	m := rng.Intn(1 << 16)
	op := []string{"<", ">"}[rng.Intn(2)]
	switch shape {
	case "point":
		return fmt.Sprintf(`SELECT * FROM items WHERE id = %d`, lo)
	case "range":
		return fmt.Sprintf(`SELECT * FROM items WHERE id BETWEEN %d AND %d`, lo, hi)
	case "count":
		return fmt.Sprintf(`SELECT COUNT(*) FROM items WHERE id BETWEEN %d AND %d AND v %s %d`, lo, hi, op, m)
	case "minmax":
		return fmt.Sprintf(`SELECT MIN(v), MAX(v) FROM items WHERE id BETWEEN %d AND %d`, lo, hi)
	case "topn":
		return fmt.Sprintf(`SELECT id, v FROM items WHERE id BETWEEN %d AND %d ORDER BY v DESC LIMIT 3`, lo, hi)
	case "update":
		return fmt.Sprintf(`UPDATE items SET v = 1 WHERE id BETWEEN %d AND %d AND v %s %d`, lo, hi, op, m)
	case "delete":
		return fmt.Sprintf(`DELETE FROM items WHERE id BETWEEN %d AND %d AND v %s %d`, lo, hi, op, m)
	default: // rejected
		if vals[lo] < 1<<15 {
			return fmt.Sprintf(`SELECT * FROM items WHERE id = %d AND v > %d`, lo, vals[lo])
		}
		return fmt.Sprintf(`SELECT * FROM items WHERE id = %d AND v < %d`, lo, vals[lo])
	}
}

// TestRevealedVersusCharged measures what a reply reveals against what
// the shield charges for it. The fixture is 64
// tuples, each with a 16-bit value v. Each statement, drawn from the
// seed, runs once through Shield.QueryCtx on the fixture; then, for each
// tuple k, again on a copy of the fixture in which k's v has its top bit
// flipped. k is revealed when that reply differs from the first — its
// rows, its row count, Affected, an aggregate value or its error — and
// charged when the first run moved k's access count.
//
// Point and range SELECTs with no residual filter charge every tuple
// they reveal. Every other shape's gap is pinned in revealGap.
func TestRevealedVersusCharged(t *testing.T) {
	const tuples, perShape = 64, 8
	rng := rand.New(rand.NewSource(revealSeed))
	vals := make([]int, tuples)
	for k := range vals {
		vals[k] = rng.Intn(1 << 16)
	}
	db, err := engine.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE items (id INT PRIMARY KEY, v INT)`); err != nil {
		t.Fatal(err)
	}
	s, err := New(db, Config{N: tuples, Alpha: 1, Beta: 2, Cap: time.Second, Clock: simClock()})
	if err != nil {
		t.Fatal(err)
	}
	// load resets the table, through the engine and not the shield, to
	// the fixture with tuple flip's value changed (-1: none).
	load := func(flip int) {
		t.Helper()
		var sb strings.Builder
		sb.WriteString("INSERT INTO items VALUES ")
		for k, v := range vals {
			if k == flip {
				v ^= 1 << 15
			}
			if k > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d)", k, v)
		}
		if _, err := db.Exec(`DELETE FROM items WHERE id >= 0`); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Exec(sb.String()); err != nil {
			t.Fatal(err)
		}
	}
	reply := func(sql string) string {
		res, _, err := s.QueryCtx(context.Background(), "probe", sql)
		if err != nil {
			return "error: " + err.Error()
		}
		return fmt.Sprint(res.Columns, len(res.Rows), res.Rows, res.Affected)
	}

	type tally struct{ revealed, charged, gap int }
	table := map[string]*tally{}
	for _, shape := range revealShapes {
		tl := &tally{}
		table[shape] = tl
		for range perShape {
			sql := revealStatement(rng, shape, vals)
			load(-1)
			before := make([]float64, tuples)
			for k := range before {
				before[k] = s.Tracker().Count(uint64(k))
			}
			want := reply(sql)
			charged := make([]bool, tuples)
			for k := range charged {
				charged[k] = s.Tracker().Count(uint64(k)) > before[k]
			}
			for k := 0; k < tuples; k++ {
				load(k)
				revealed := reply(sql) != want
				if revealed {
					tl.revealed++
				}
				if charged[k] {
					tl.charged++
				}
				if revealed && !charged[k] {
					tl.gap++
					if shape == "point" || shape == "range" {
						t.Errorf("seed %d, %q: reveals tuple %d and does not charge it", revealSeed, sql, k)
					}
				}
			}
		}
	}

	t.Logf("seed %d, %d tuples, %d statements per shape; pairs of (statement, tuple):", revealSeed, tuples, perShape)
	t.Logf("| Shape | Revealed | Charged | Revealed, not charged |")
	t.Logf("|---|---|---|---|")
	for _, shape := range revealShapes {
		tl := table[shape]
		t.Logf("| %s | %d | %d | %d |", shape, tl.revealed, tl.charged, tl.gap)
	}
	for _, shape := range revealShapes {
		if got, want := table[shape].gap, revealGap[shape]; got != want {
			t.Errorf("seed %d, %s: %d revealed-but-uncharged pairs, recorded %d", revealSeed, shape, got, want)
		}
	}
}
