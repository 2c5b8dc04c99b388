package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/sqlmini"
	"repro/internal/vclock"
)

// oracleLeg is a scatter leg the way the merge used to hold one.
type oracleLeg struct {
	node int
	resp server.QueryResponse
}

// oracleMerge is the merge as it was before it read spans, kept as the
// reference: every leg decoded by encoding/json into strings, merged as
// strings, the reply encoded again from strings.
func oracleMerge(replies []oracleLeg, spec *mergeSpec) (*server.QueryResponse, error) {
	// Stable order: merge in node order, not arrival order.
	sort.SliceStable(replies, func(a, b int) bool { return replies[a].node < replies[b].node })
	out := &server.QueryResponse{Rows: [][]string{}}
	for _, rep := range replies {
		if rep.resp.DelayMillis > out.DelayMillis {
			out.DelayMillis = rep.resp.DelayMillis
		}
	}
	if len(spec.aggs) > 0 {
		return oracleAggregates(replies, spec, out)
	}
	if len(replies) == 0 {
		return out, nil
	}
	out.Columns = replies[0].resp.Columns
	if spec.order != nil {
		idx := spec.orderIdx
		if idx < 0 {
			for i, c := range out.Columns {
				if strings.EqualFold(c, spec.order.Column) {
					idx = i
					break
				}
			}
			if idx < 0 {
				return nil, fmt.Errorf("order column %q missing from shard response", spec.order.Column)
			}
		}
		out.Rows = oracleOrdered(replies, idx, spec.order.Desc, spec.limit)
	} else {
		for _, rep := range replies {
			out.Rows = append(out.Rows, rep.resp.Rows...)
		}
		if spec.limit >= 0 && len(out.Rows) > spec.limit {
			out.Rows = out.Rows[:spec.limit]
		}
	}
	if spec.strip {
		out.Columns = out.Columns[:len(out.Columns)-1]
		for i, row := range out.Rows {
			out.Rows[i] = row[:len(row)-1]
		}
	}
	return out, nil
}

// oracleOrdered k-way merges per-shard streams that are each already
// sorted on column idx. Ties break toward the lower node index, so the
// merged order is deterministic.
func oracleOrdered(replies []oracleLeg, idx int, desc bool, limit int) [][]string {
	total := 0
	for _, rep := range replies {
		total += len(rep.resp.Rows)
	}
	if limit >= 0 && limit < total {
		total = limit
	}
	out := make([][]string, 0, total)
	cursors := make([]int, len(replies))
	for len(out) < total || limit < 0 {
		best := -1
		for j := range replies {
			if cursors[j] >= len(replies[j].resp.Rows) {
				continue
			}
			if best < 0 {
				best = j
				continue
			}
			c := sqlmini.CompareCells(replies[j].resp.Rows[cursors[j]][idx], replies[best].resp.Rows[cursors[best]][idx])
			if desc {
				c = -c
			}
			if c < 0 {
				best = j
			}
		}
		if best < 0 {
			break
		}
		out = append(out, replies[best].resp.Rows[cursors[best]])
		cursors[best]++
		if limit >= 0 && len(out) == limit {
			break
		}
	}
	return out
}

// oracleAggregates combines shard-local partials into the final
// aggregate row, labeled exactly as a single node would label it.
func oracleAggregates(replies []oracleLeg, spec *mergeSpec, out *server.QueryResponse) (*server.QueryResponse, error) {
	out.Columns = make([]string, len(spec.aggs))
	for i, a := range spec.aggs {
		out.Columns[i] = sqlmini.AggregateName(a)
	}
	for _, rep := range replies {
		if len(rep.resp.Rows) == 0 {
			// LIMIT 0 on an aggregate yields no row; every shard ran
			// the same statement, so mirror it.
			return out, nil
		}
		if len(rep.resp.Rows) != 1 {
			return nil, fmt.Errorf("aggregate partial with %d rows from node %d", len(rep.resp.Rows), rep.node)
		}
	}
	cell := func(rep oracleLeg, part int) string {
		return rep.resp.Rows[0][part]
	}
	row := make([]string, len(spec.aggs))
	for i, a := range spec.aggs {
		parts := spec.src[i]
		switch a.Func {
		case sqlmini.AggCount:
			var total int64
			for _, rep := range replies {
				v, err := strconv.ParseInt(cell(rep, parts[0]), 10, 64)
				if err != nil {
					return nil, fmt.Errorf("bad COUNT partial %q from node %d", cell(rep, parts[0]), rep.node)
				}
				total += v
			}
			row[i] = strconv.FormatInt(total, 10)
		case sqlmini.AggSum, sqlmini.AggAvg:
			var sum float64
			var count int64
			for _, rep := range replies {
				s, err := strconv.ParseFloat(cell(rep, parts[0]), 64)
				if err != nil {
					return nil, fmt.Errorf("bad %s partial %q from node %d", a.Func, cell(rep, parts[0]), rep.node)
				}
				sum += s
				if a.Func == sqlmini.AggAvg {
					c, err := strconv.ParseInt(cell(rep, parts[1]), 10, 64)
					if err != nil {
						return nil, fmt.Errorf("bad COUNT partial %q from node %d", cell(rep, parts[1]), rep.node)
					}
					count += c
				}
			}
			if a.Func == sqlmini.AggAvg {
				if count == 0 {
					row[i] = "0"
				} else {
					row[i] = strconv.FormatFloat(sum/float64(count), 'g', -1, 64)
				}
			} else {
				row[i] = strconv.FormatFloat(sum, 'g', -1, 64)
			}
		case sqlmini.AggMin, sqlmini.AggMax:
			// A shard whose slice matched no rows reports the engine's
			// empty-aggregate zero; the paired COUNT partial filters it
			// out of the global extreme.
			best := ""
			seen := false
			for _, rep := range replies {
				c, err := strconv.ParseInt(cell(rep, parts[1]), 10, 64)
				if err != nil {
					return nil, fmt.Errorf("bad COUNT partial %q from node %d", cell(rep, parts[1]), rep.node)
				}
				if c == 0 {
					continue
				}
				v := cell(rep, parts[0])
				if !seen {
					best, seen = v, true
					continue
				}
				cmp := sqlmini.CompareCells(v, best)
				if (a.Func == sqlmini.AggMin && cmp < 0) || (a.Func == sqlmini.AggMax && cmp > 0) {
					best = v
				}
			}
			if !seen {
				best = "0" // the engine's empty-aggregate answer
			}
			row[i] = best
		default:
			return nil, fmt.Errorf("unmergeable aggregate %v", a.Func)
		}
	}
	out.Rows = [][]string{row}
	return out, nil
}

// oracleReply is the reply the old merge relayed for these leg bodies, or
// an error where it answered 502 (or panicked into the recovery handler).
func oracleReply(bodies [][]byte, spec *mergeSpec) (out []byte, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	legs := make([]oracleLeg, len(bodies))
	for i, body := range bodies {
		legs[i].node = i
		if err := json.Unmarshal(body, &legs[i].resp); err != nil {
			return nil, err
		}
	}
	resp, err := oracleMerge(legs, spec)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = json.NewEncoder(&buf).Encode(resp)
	return buf.Bytes(), err
}

// scanLegs is decodeLeg over bodies; ok is false when some body is not
// the reply frame.
func scanLegs(bodies [][]byte) (replies []shardReply, ok bool) {
	replies = make([]shardReply, len(bodies))
	for i, body := range bodies {
		view, err := server.ScanQueryResponse(body)
		if err != nil {
			return nil, false
		}
		replies[i] = shardReply{node: i, rep: reply{status: http.StatusOK, body: body}, resp: view}
	}
	return replies, true
}

// spanReply is the reply the merge relays for scanned legs.
func spanReply(replies []shardReply, spec *mergeSpec) ([]byte, error) {
	columns, rows, delay, err := mergeReplies(replies, spec)
	if err != nil {
		return nil, err
	}
	rec := httptest.NewRecorder()
	server.WriteQueryResponse(rec, columns, rows, 0, delay)
	return rec.Body.Bytes(), nil
}

// aggPresets are the aggregate lists FuzzSpanMerge picks from.
var aggPresets = [][]sqlmini.Aggregate{
	{{Func: sqlmini.AggCount}, {Func: sqlmini.AggSum, Column: "id"}, {Func: sqlmini.AggAvg, Column: "id"}, {Func: sqlmini.AggMin, Column: "id"}, {Func: sqlmini.AggMax, Column: "id"}},
	{{Func: sqlmini.AggMin, Column: "id"}, {Func: sqlmini.AggMax, Column: "id"}, {Func: sqlmini.AggCount}},
	{{Func: sqlmini.AggCount}},
	{{Func: sqlmini.AggMin, Column: "v"}, {Func: sqlmini.AggMax, Column: "v"}},
}

// specArgs is a merge plan as plain values, the form a fuzz input takes:
// shape 0 is a plain scan, 1 an ORDER BY id, 2 aggPresets[idx].
type specArgs struct {
	shape       uint8
	limit       int
	desc, strip bool
	idx         int
}

func (a specArgs) spec() *mergeSpec {
	spec := &mergeSpec{limit: max(a.limit, -1), orderIdx: -1}
	switch a.shape % 3 {
	case 1:
		spec.order = &sqlmini.OrderBy{Column: "id", Desc: a.desc}
		spec.orderIdx = max(a.idx, -1) % 8
		spec.strip = a.strip
	case 2:
		spec.aggs = aggPresets[max(a.idx, 0)%len(aggPresets)]
		_, spec.src = sqlmini.PartialAggregates(spec.aggs)
	}
	return spec
}

// legTap sits on one shard's transport. It keeps the body of the last
// scatter leg the shard answered and, once tear is set, hands the next
// one on cut to that many bytes — one past its length: a byte added; its
// length or more than one past it: as it is.
type legTap struct {
	inner transport
	mu    sync.Mutex
	last  []byte
	met   []byte // the body the last armed tear met
	tear  int    // -1: pass the reply through
}

func (l *legTap) roundTrip(ctx context.Context, c *call) (reply, error) {
	rep, err := l.inner.roundTrip(ctx, c)
	if err != nil || rep.status != http.StatusOK || c.path != "/query" || !bytes.Contains(c.body, []byte(`"pfilter"`)) {
		return rep, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.last = rep.body
	if k := l.tear; k >= 0 {
		l.met = rep.body
		if l.tear = -1; k <= len(rep.body)+1 {
			rep.body = append(bytes.Clone(rep.body), 'x')[:k]
		}
	}
	return rep, nil
}

// realCase is a statement, its merge plan written out by hand, and what
// a live cluster made of it: each leg's reply body and the router's own.
type realCase struct {
	sql  string
	args specArgs
	legs [][]byte
	want []byte
}

// tappedCluster is four shards at R=2 behind legTaps, loaded with 40
// plain rows and a few whose text the codec must escape, admission open
// and the retry backoff on a clock that does not sleep.
func tappedCluster(t testing.TB) (*testCluster, []*legTap) {
	taps := make([]*legTap, 4)
	cfg := benchConfig(16, 2)
	cfg.Clock = vclock.NewSimulated(time.Date(2004, 8, 1, 0, 0, 0, 0, time.UTC))
	c := newTestCluster(t, clusterOpts{Shards: 4, Tuples: 40, Config: cfg,
		Wrap: func(i int, next transport) transport {
			taps[i] = &legTap{inner: next, tear: -1}
			return taps[i]
		}})
	if err := c.Router.ExecScript("INSERT INTO items VALUES (41, '<b>&\"q\"\\</b>'), (42, 'line\u2028sep \t\x01'), (43, 'é 日本 \U0001F600 \ufffd'), (44, '')"); err != nil {
		t.Fatal(err)
	}
	return c, taps
}

// realCases runs one statement of every merge shape through a live
// cluster. A case whose hand-written plan does not merge its legs into
// exactly what the router answered fails here, so what the fuzz target,
// the torn-reply test and the benchmark start from is what is served.
func realCases(t testing.TB) []realCase {
	c, taps := tappedCluster(t)
	cases := []realCase{
		{sql: `SELECT * FROM items WHERE id >= 3 AND id <= 102 ORDER BY id LIMIT 20`, args: specArgs{shape: 1, limit: 20, idx: -1}},
		{sql: `SELECT v FROM items ORDER BY id DESC LIMIT 10`, args: specArgs{shape: 1, limit: 10, desc: true, strip: true, idx: 1}},
		{sql: `SELECT id, v FROM items ORDER BY id`, args: specArgs{shape: 1, limit: -1}},
		{sql: `SELECT * FROM items WHERE id >= 43 ORDER BY id`, args: specArgs{shape: 1, limit: -1, idx: -1}},
		{sql: `SELECT v FROM items WHERE id <= 12`, args: specArgs{limit: -1}},
		{sql: `SELECT v FROM items WHERE id > 1000`, args: specArgs{limit: -1}},
		{sql: `SELECT COUNT(*), SUM(id), AVG(id), MIN(id), MAX(id) FROM items`, args: specArgs{shape: 2, limit: -1}},
		{sql: `SELECT MIN(id), MAX(id), COUNT(*) FROM items WHERE id >= 17 AND id <= 17`, args: specArgs{shape: 2, limit: -1, idx: 1}},
		{sql: `SELECT COUNT(*) FROM items LIMIT 0`, args: specArgs{shape: 2, idx: 2}},
		{sql: `SELECT MIN(v), MAX(v) FROM items`, args: specArgs{shape: 2, limit: -1, idx: 3}},
	}
	for i := range cases {
		rc := &cases[i]
		for _, tap := range taps {
			tap.last = nil
		}
		resp, body := query(t, c.Handler, "analyst", rc.sql)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", rc.sql, resp.StatusCode, body)
		}
		rc.want = body
		for _, tap := range taps {
			if tap.last != nil {
				rc.legs = append(rc.legs, tap.last)
			}
		}
		replies, ok := scanLegs(rc.legs)
		if !ok {
			t.Fatalf("%s: a shard's reply is not the frame: %q", rc.sql, rc.legs)
		}
		if got, err := spanReply(replies, rc.args.spec()); err != nil || !bytes.Equal(got, rc.want) {
			t.Fatalf("%s: plan %+v merges the legs into %q (%v), the router answered %q", rc.sql, rc.args, got, err, rc.want)
		}
	}
	return cases
}

// FuzzSpanMerge: whatever four bodies come back as legs and whatever the
// plan, when every body is the reply frame the merge over spans relays
// byte for byte what decoding every cell, merging strings and encoding
// them again relayed; and a body the scanner turns away is one that
// json.Unmarshal fails on, that is ragged, or that Encode spells
// differently — it rejects nothing a shard of this binary writes.
func FuzzSpanMerge(f *testing.F) {
	for _, rc := range realCases(f) {
		legs := append(rc.legs, nil, nil, nil, nil)
		f.Add(rc.args.shape, rc.args.limit, rc.args.desc, rc.args.strip, rc.args.idx, legs[0], legs[1], legs[2], legs[3])
		// The same legs under every other kind of plan.
		f.Add(uint8(0), 5, false, false, 0, legs[0], legs[1], legs[2], legs[3])
		f.Add(uint8(1), 3, true, false, 0, legs[0], legs[1], legs[2], legs[3])
	}
	// A write's reply as a leg — no columns to strip or sort on — and a
	// leg narrower than its sibling.
	f.Add(uint8(1), 3, true, true, 0, []byte("{\"affected\":0,\"delay_millis\":0}\n"), []byte(nil), []byte(nil), []byte(nil))
	f.Add(uint8(1), -1, false, false, 1, []byte("{\"columns\":[\"id\",\"v\"],\"rows\":[[\"1\",\"a\"]],\"affected\":0,\"delay_millis\":2}\n"),
		[]byte("{\"columns\":[\"id\"],\"rows\":[[\"2\"]],\"affected\":0,\"delay_millis\":1}\n"), []byte(nil), []byte(nil))
	f.Fuzz(func(t *testing.T, shape uint8, limit int, desc, strip bool, idx int, a, b, c, d []byte) {
		var bodies [][]byte
		for _, body := range [][]byte{a, b, c, d} {
			if len(body) > 0 {
				bodies = append(bodies, body)
			}
		}
		replies, ok := scanLegs(bodies)
		if !ok {
			for _, body := range bodies {
				var resp server.QueryResponse
				if _, err := server.ScanQueryResponse(body); err == nil || json.Unmarshal(body, &resp) != nil {
					continue
				}
				again, _ := oracleReply([][]byte{body}, &mergeSpec{limit: -1})
				ragged := false
				for _, row := range resp.Rows {
					ragged = ragged || row == nil || len(row) != len(resp.Columns)
				}
				if !ragged && bytes.Equal(again, body) {
					t.Fatalf("%q: rejected, yet rectangular and what Encode writes", body)
				}
			}
			return
		}
		spec := specArgs{shape, limit, desc, strip, idx}.spec()
		want, werr := oracleReply(bodies, spec)
		got, gerr := spanReply(replies, spec)
		switch {
		case gerr == nil && (werr != nil || !bytes.Equal(got, want)):
			t.Fatalf("plan %+v over %q:\nspans  %q\noracle %q (%v)", *spec, bodies, got, want, werr)
		case gerr != nil && werr == nil && !strings.Contains(gerr.Error(), "columns from node"):
			// Only a leg narrower than the plan reads may fail one merge
			// alone: the oracle never looks at a row it does not reach.
			t.Fatalf("plan %+v over %q: spans failed (%v), the oracle answered %q", *spec, bodies, gerr, want)
		}
	})
}

// TestTornLegFailsAtEveryCut is the cluster.rpc torn rule at every byte:
// a leg's 200 cut to any proper prefix of its body, or grown by a byte,
// fails that leg — never merges — and its partitions go to the retry
// round, whose other replicas give the client the whole answer.
func TestTornLegFailsAtEveryCut(t *testing.T) {
	c, taps := tappedCluster(t)
	for _, sql := range []string{
		`SELECT * FROM items WHERE id >= 30 ORDER BY id LIMIT 20`,
		`SELECT v FROM items WHERE id >= 36 ORDER BY id DESC`,
		`SELECT COUNT(*), MIN(v), MAX(id) FROM items`,
		`SELECT v FROM items WHERE id > 1000`,
	} {
		for _, tap := range taps {
			tap.last = nil
		}
		// The delay moves with the shield's history; the rest may not.
		rows := func(reply []byte) string {
			return string(reply[:bytes.LastIndex(reply, []byte(`"affected":`))+1])
		}
		_, want := query(t, c.Handler, "analyst", sql)
		for victim, tap := range taps {
			if tap.last == nil {
				continue // the cover gave this shard no leg
			}
			// A leg's length moves with its delay's digits, so each k is
			// judged against the body it actually met.
			for k, whole := 0, 0; k <= whole+1; k++ {
				retries := c.Router.readRetries.Value()
				tap.mu.Lock()
				tap.tear = k
				tap.mu.Unlock()
				resp, got := query(t, c.Handler, "analyst", sql)
				if resp.StatusCode != http.StatusOK || rows(got) != rows(want) {
					t.Fatalf("%s: shard %d's leg cut at %d: HTTP %d %q, want %q", sql, victim, k, resp.StatusCode, got, want)
				}
				// A key-ordered TopN may run a second round, so the body
				// the tear met is not always the last one this shard sent.
				whole = len(tap.met)
				if retried := c.Router.readRetries.Value() == retries+1; retried != (k != whole && k <= whole+1) {
					t.Fatalf("%s: shard %d's leg cut at %d of %d: retry round %v", sql, victim, k, whole, retried)
				}
			}
		}
	}
}

// TestConcurrentScattersKeepTheirOwnLegs holds the shard transport to
// the other half of its contract (node.go): a reply's body belongs to
// its caller. Scatters run side by side, each merging spans of bodies
// its leg goroutines received; a transport that took a body back — to a
// pool, to the next reply on the connection — would show under -race, or
// as one statement's rows in another's reply.
func TestConcurrentScattersKeepTheirOwnLegs(t *testing.T) {
	// One subtest, named for the one transport, so the test keeps the ID
	// it ran under beside an in-process row.
	t.Run("shard transport", func(t *testing.T) {
		h := newTestCluster(t, clusterOpts{Shards: 4, Tuples: 200, Config: benchConfig(64, 1)}).Handler
		var wg sync.WaitGroup
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 25; i++ {
					lo := 1 + (g*31+i*7)%150
					resp, body := query(t, h, fmt.Sprintf("g%d", g),
						fmt.Sprintf(`SELECT * FROM items WHERE id >= %d AND id <= %d ORDER BY id LIMIT 20`, lo, lo+49))
					var qr server.QueryResponse
					if err := json.Unmarshal(body, &qr); err != nil || resp.StatusCode != http.StatusOK || len(qr.Rows) != 20 {
						t.Errorf("goroutine %d from %d: HTTP %d, %d rows, decode %v: %s", g, lo, resp.StatusCode, len(qr.Rows), err, body)
						return
					}
					for j, row := range qr.Rows {
						if want := strconv.Itoa(lo + j); row[0] != want || row[1] != "v"+want {
							t.Errorf("goroutine %d from %d: row %d is %v", g, lo, j, row)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	})
}
