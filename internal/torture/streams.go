package torture

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"

	"repro/internal/engine"
	"repro/internal/fault"
)

// streamKeys is the key space a drawn stream writes: small, so updates
// and deletes keep finding rows, and a few pages wide once values grow.
const streamKeys = 48

// streamStep is one drawn statement and what the model says it does:
// the rows a write changes or a SELECT returns (canonical, sorted), and
// the table after it, canonical as tableState renders it.
type streamStep struct {
	sql      string
	read     bool
	affected int
	rows     []string
	state    string
}

// streamModel is the in-memory table a stream is checked against.
type streamModel map[int64]string

// lines is the model's rows with keys in [lo, hi), canonical and sorted
// as tableState sorts them.
func (m streamModel) lines(lo, hi int64) []string {
	var out []string
	for k := range m {
		if k >= lo && k < hi {
			out = append(out, fmt.Sprintf("%d|%s", k, m[k]))
		}
	}
	sort.Strings(out)
	return out
}

func (m streamModel) state() string {
	return strings.Join(m.lines(0, streamKeys), "\n")
}

// drawStream draws n statements on table t from seed: single- and
// multi-row INSERTs of free keys, UPDATEs and DELETEs of one key or a key
// range, and point and range SELECTs. Values run from a few bytes to
// over a kilobyte, so rows move inside their page, pages compact, and
// the log sees whole images next to small patches. Only statements that
// must succeed are drawn (an INSERT never reuses a live key), and the
// stream is a pure function of seed and n.
func drawStream(seed uint64, n int) []streamStep {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	m := make(streamModel)
	value := func() string {
		size := 1 + rng.IntN(40)
		if rng.IntN(8) == 0 {
			size = 200 + rng.IntN(1200)
		}
		b := make([]byte, size)
		for i := range b {
			b[i] = 'a' + byte(rng.IntN(26))
		}
		return string(b)
	}
	span := func() (int64, int64) {
		lo := rng.Int64N(streamKeys)
		return lo, lo + 1 + rng.Int64N(8)
	}
	steps := make([]streamStep, 0, n)
	for len(steps) < n {
		var st streamStep
		switch op := rng.IntN(10); {
		case op < 3: // INSERT of 1-3 free keys
			var vals []string
			for range 1 + rng.IntN(3) {
				k := rng.Int64N(streamKeys)
				if _, live := m[k]; live {
					continue
				}
				m[k] = value()
				vals = append(vals, fmt.Sprintf("(%d, '%s')", k, m[k]))
			}
			if len(vals) == 0 {
				continue
			}
			st = streamStep{sql: "INSERT INTO t VALUES " + strings.Join(vals, ", "), affected: len(vals)}
		case op < 5: // UPDATE of one key, live or not
			k, v := rng.Int64N(streamKeys), value()
			st.sql = fmt.Sprintf("UPDATE t SET v = '%s' WHERE id = %d", v, k)
			if _, live := m[k]; live {
				m[k], st.affected = v, 1
			}
		case op < 6: // UPDATE of a key range
			lo, hi := span()
			v := value()
			st.sql = fmt.Sprintf("UPDATE t SET v = '%s' WHERE id >= %d AND id < %d", v, lo, hi)
			for k := range m {
				if k >= lo && k < hi {
					m[k] = v
					st.affected++
				}
			}
		case op < 7: // DELETE of one key
			k := rng.Int64N(streamKeys)
			st.sql = fmt.Sprintf("DELETE FROM t WHERE id = %d", k)
			if _, live := m[k]; live {
				delete(m, k)
				st.affected = 1
			}
		case op < 8: // DELETE of a key range, now and then
			if rng.IntN(2) == 0 {
				continue
			}
			lo, hi := span()
			st.sql = fmt.Sprintf("DELETE FROM t WHERE id >= %d AND id < %d", lo, hi)
			for k := range m {
				if k >= lo && k < hi {
					delete(m, k)
					st.affected++
				}
			}
		default: // SELECT of one key or a range
			lo, hi := span()
			if rng.IntN(2) == 0 {
				hi = lo + 1
				st.sql = fmt.Sprintf("SELECT * FROM t WHERE id = %d", lo)
			} else {
				st.sql = fmt.Sprintf("SELECT * FROM t WHERE id >= %d AND id < %d", lo, hi)
			}
			st.rows, st.read = m.lines(lo, hi), true
		}
		st.state = m.state()
		steps = append(steps, st)
	}
	return steps
}

// checkStep holds one statement's result to what the model drew for it.
func checkStep(st streamStep, res *engine.Result) error {
	if !st.read {
		if res.Affected != st.affected {
			return fmt.Errorf("%s: %d rows changed, the model says %d", st.sql, res.Affected, st.affected)
		}
		return nil
	}
	got := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		got[i] = row[0].String() + "|" + row[1].String()
	}
	sort.Strings(got)
	if !slices.Equal(got, st.rows) {
		return fmt.Errorf("%s: returned %d rows, the model has %d", st.sql, len(got), len(st.rows))
	}
	return nil
}

// runStream runs steps on a fresh torture engine in dir, with faults
// armed once the table exists, and holds every statement that succeeds
// to the model: its result to what checkStep expects, and the table after
// it to the model's. It stops at the first statement that fails and
// returns that error as stmtErr, with ran the statements before it; a
// departure from the model is err. The image is captured with the engine
// still open — the crash image — and the engine is closed afterwards
// only to release handles.
func runStream(dir string, steps []streamStep, faults *fault.Registry) (im *image, ran int, stmtErr, err error) {
	db, err := openEngine(dir, poolPages)
	if err != nil {
		return nil, 0, nil, err
	}
	defer db.Close()
	if _, err := db.Exec("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)"); err != nil {
		return nil, 0, nil, err
	}
	fault.Enable(faults)
	defer fault.Disable()
	for ; ran < len(steps); ran++ {
		st := steps[ran]
		res, err := db.Exec(st.sql)
		if err != nil {
			stmtErr = err
			break
		}
		if err := checkStep(st, res); err != nil {
			return nil, ran, nil, fmt.Errorf("statement %d: %w", ran, err)
		}
		state, err := tableState(db)
		if err != nil {
			return nil, ran, nil, err
		}
		if state != st.state {
			return nil, ran, nil, fmt.Errorf("table after statement %d (%s) differs from the model", ran, st.sql)
		}
	}
	im, err = capture(dir, "t.tbl.wal", poolPages)
	return im, ran, stmtErr, err
}

// batchStates is the model's table after each batch of the log, and the
// statement that wrote each batch: states[0] is the empty table, and
// writers[k-1] wrote batch k. A statement that changed rows writes one
// batch, and no other statement writes any.
func batchStates(steps []streamStep) (states []string, writers []int) {
	states = []string{""}
	for i, st := range steps {
		if st.affected > 0 {
			states = append(states, st.state)
			writers = append(writers, i)
		}
	}
	return states, writers
}

// stream is one seed's stream as an undisturbed run left it: the crash
// image, and the log's layout, parsed against the model's batches.
type stream struct {
	steps   []streamStep
	im      *image
	states  []string // the model after each batch
	writers []int    // writers[k-1] is the statement that wrote batch k
	batches [][]int64
	ends    []int64 // ends[k] is the log length after batch k
}

// cleanStream draws n statements from seed and runs them undisturbed in
// dir.
func cleanStream(dir string, seed uint64, n int) (*stream, error) {
	s := &stream{steps: drawStream(seed, n)}
	im, _, stmtErr, err := runStream(dir, s.steps, nil)
	if err == nil {
		err = stmtErr
	}
	if err == nil {
		s.im = im
		s.states, s.writers = batchStates(s.steps)
		s.batches, s.ends, err = commitEnds(im.files[im.log], len(s.writers))
	}
	if err != nil {
		return nil, fmt.Errorf("torture: seed %d: %w", seed, err)
	}
	return s, nil
}
