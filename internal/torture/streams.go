package torture

import (
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"repro/internal/engine"
	"repro/internal/storage"
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

// runStream runs the drawn steps through runWorkload, checking each
// statement's result against the model as it returns.
func runStream(dir string, steps []streamStep) (*image, []string, error, error) {
	stmts := make([]string, len(steps))
	for i, st := range steps {
		stmts[i] = st.sql
	}
	return runWorkload(dir, stmts, nil, func(i int, res *engine.Result) error {
		return checkStep(steps[i], res)
	})
}

// RunStream draws a statement stream from seed (cfg.Statements × 6
// statements), runs it on the torture engine with every statement held
// to the in-memory model and every state after one held to the model's
// table, then crashes the log at every batch boundary and at sampled
// offsets inside its image and patch records (two per record, all kept
// when cfg.MaxPoints is 0). Recovery must equal the model as it stood
// after the last batch the cut leaves whole. A failing seed replays byte
// for byte: the stream, and so the log, depends on the seed alone.
func RunStream(scratch string, cfg Config, seed uint64) (*Result, error) {
	cfg.fill()
	steps := drawStream(seed, 6*cfg.Statements)
	im, states, stmtErr, err := runStream(filepath.Join(scratch, "work"), steps)
	if err == nil {
		err = stmtErr
	}
	if err != nil {
		return nil, fmt.Errorf("torture: stream seed %d: %w", seed, err)
	}
	for i, st := range steps {
		if states[i+1] != st.state {
			return nil, fmt.Errorf("torture: stream seed %d: table after statement %d (%s) differs from the model", seed, i, st.sql)
		}
	}
	log := im.files[im.log]
	batches, err := storage.WALBatches(log)
	if err != nil {
		return nil, fmt.Errorf("torture: stream seed %d: %w", seed, err)
	}

	ends := []int64{0}
	for _, recs := range batches {
		ends = append(ends, recs[len(recs)-1])
	}
	rng := rand.New(rand.NewPCG(seed, 0xc0ffee))
	var inside []int64
	images := 0 // records longer than a page; a patch carries at most half of one
	start := int64(0)
	for _, recs := range batches {
		for _, end := range recs[:len(recs)-1] {
			if end-start > storage.PageSize {
				images++
			}
			for range 2 {
				inside = append(inside, start+1+rng.Int64N(end-start-1))
			}
			start = end
		}
		start = recs[len(recs)-1]
	}
	keep := len(inside)
	if cfg.MaxPoints > 0 {
		keep = max(cfg.MaxPoints-len(ends), 1)
	}
	points := append(slices.Clone(ends), sample(inside, keep)...)
	slices.Sort(points)
	points = slices.Compact(points)

	after, err := batchStates(steps, len(batches))
	if err != nil {
		return nil, fmt.Errorf("torture: stream seed %d: %w", seed, err)
	}
	res := &Result{Points: len(points), Statements: len(batches), WALBytes: int64(len(log))}
	cfg.Logf("torture: stream seed %d: %d statements, %d batches (%d image and %d patch records), %d crash points over %d bytes of log",
		seed, len(steps), len(batches), images, len(inside)/2-images, len(points), len(log))
	for _, off := range points {
		if res.full() {
			break
		}
		got, err := reopenAt(filepath.Join(scratch, "crash"), im, off, tableState)
		res.expect(fmt.Sprintf("stream seed %d, offset %d", seed, off), got, err, after, expectedIndex(ends, off))
	}
	return res, nil
}

// batchStates is the model's table after each batch of the log: state 0
// is the empty table, and a statement that changed rows wrote one batch.
func batchStates(steps []streamStep, batches int) ([]string, error) {
	states := []string{""}
	for _, st := range steps {
		if st.affected > 0 {
			states = append(states, st.state)
		}
	}
	if len(states)-1 != batches {
		return nil, fmt.Errorf("%d statements changed rows but the log holds %d batches", len(states)-1, batches)
	}
	return states, nil
}
