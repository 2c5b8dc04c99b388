package cluster

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/server"
	"repro/internal/sqlmini"
)

// This file is the front-door merge executor: a multi-partition scan or
// aggregate fans to one live replica per partition — each leg carrying
// a partition filter naming exactly the partitions it answers for, so
// replicated copies and migration leftovers can never double into the
// result — and the partial results recombine here into exactly the
// response one shard holding everything would have produced. Three
// merge shapes:
//
//   - ORDER BY: each shard returns its slice already sorted (with the
//     sort column injected into the projection when the client did not
//     select it), and the executor k-way merges the sorted streams,
//     stripping the injected column before relay. An ORDER BY on the
//     primary key with a LIMIT and a starting bound reads its window of
//     keys first (scatterTopN).
//   - Aggregates: the statement is rewritten into mergeable partials
//     (sqlmini.PartialAggregates) and the partials combine — counts and
//     sums add, AVG divides summed sums by summed counts, MIN/MAX take
//     the extreme over shards whose slice matched at least one row.
//   - LIMIT without ORDER BY: the fan-out stops as soon as enough rows
//     arrived — the shared context cancels outstanding shard RPCs, so a
//     LIMIT 10 against four shards costs roughly the fastest shard, not
//     the slowest.
//
// A failed leg (transport error, truncated body, shard 5xx) does not
// fail the scan when R > 1: its partitions re-cover onto the surviving
// replicas and retry with jittered backoff, bounded by readRetryRounds.
// Deterministic shard rejections (4xx) relay immediately.

// shardReply is one shard's answer to a scatter leg: the reply as it
// came, and of a 200 the view over its body — the frame checked end to
// end, no row decoded.
type shardReply struct {
	node int
	rep  reply // status 0 when err is a transport failure
	resp server.ReplyView
	err  error // transport failure, or a 200 whose body is not the reply frame
}

// ok reports whether the shard ran the leg's statement.
func (s *shardReply) ok() bool { return s.err == nil && s.rep.status == http.StatusOK }

// decodeLeg turns a fan-out leg of /query calls into a shardReply. A
// 200 cut short at any byte (the shard died mid-reply, the cluster.rpc
// torn rule) is not the frame and counts as the leg failing.
func (r *Router) decodeLeg(node int, leg fanLeg) shardReply {
	out := shardReply{node: node, rep: leg.rep, err: leg.err}
	if out.ok() {
		var err error
		if out.resp, err = server.ScanQueryResponse(leg.rep.body); err != nil {
			out.err = fmt.Errorf("shard %s: decoding response: %v", r.nodes[node].name, err)
		}
	}
	return out
}

// legCall is the /query call of one scatter leg, on behalf of the
// client whose call c is.
func legCall(c *call, q server.QueryRequest) *call {
	leg := *c
	leg.body = server.AppendQueryRequest(nil, q)
	return &leg
}

// mergeSpec is the merge plan derived from the statement shape.
type mergeSpec struct {
	// aggs/src: original aggregate list and, per aggregate, the indices
	// of its partials in the rewritten shard statement.
	aggs []sqlmini.Aggregate
	src  [][]int
	// order + orderIdx: merge column. orderIdx -1 means resolve by name
	// against the shard response columns (SELECT *).
	order    *sqlmini.OrderBy
	orderIdx int
	// strip: the order column was injected into the shard projection
	// and must come back off before relay.
	strip bool
	limit int
	// earlyCancel: plain LIMIT scan — stop collecting (and cancel the
	// laggards) the moment enough rows arrived.
	earlyCancel bool
}

// readCover assigns every partition in parts to one readable replica:
// node index → the partitions that node answers for. avoid maps a
// partition to a replica that just failed with a shard error — when the
// group has an alternative, the retry goes elsewhere. A partition with
// no readable replica at all fails the cover.
func (r *Router) readCover(pm *PartitionMap, parts []int, avoid map[int]int) (map[int][]int, int, bool) {
	cover := make(map[int][]int)
	for _, p := range parts {
		pick := -1
		for _, i := range pm.Replicas[p] {
			if !r.nodes[i].readable() {
				continue
			}
			if a, bad := avoid[p]; bad && a == i {
				continue
			}
			pick = i
			break
		}
		if pick < 0 {
			// Only the just-failed replica (if any) remains readable;
			// better to retry it than to fail the partition.
			if a, bad := avoid[p]; bad && r.nodes[a].readable() {
				pick = a
			} else {
				return nil, p, false
			}
		}
		cover[pick] = append(cover[pick], p)
	}
	return cover, 0, true
}

// scatterRead fans a multi-partition SELECT to one live replica per
// partition and merges the partition-filtered partials. A key-ordered
// TopN goes through scatterTopN instead.
func (r *Router) scatterRead(ctx context.Context, w http.ResponseWriter, pm *PartitionMap, sel *sqlmini.Select, sql string, c *call) {
	spec := mergeSpec{limit: sel.Limit, orderIdx: -1}
	shardSel := *sel
	switch {
	case len(sel.Aggregates) > 0:
		partials, src := sqlmini.PartialAggregates(sel.Aggregates)
		spec.aggs, spec.src = sel.Aggregates, src
		shardSel.Aggregates = partials
	case sel.Order != nil:
		spec.order = sel.Order
		if len(sel.Columns) > 0 {
			idx := -1
			for i, c := range sel.Columns {
				if strings.EqualFold(c, sel.Order.Column) {
					idx = i
					break
				}
			}
			if idx >= 0 {
				spec.orderIdx = idx
			} else {
				// Inject the sort column so the merge can see it; the
				// shard sorts on the full row either way.
				shardSel.Columns = append(append([]string(nil), sel.Columns...), sel.Order.Column)
				spec.orderIdx = len(sel.Columns)
				spec.strip = true
			}
		}
		if r.scatterTopN(ctx, w, pm, &shardSel, spec, c) {
			return
		}
	default:
		spec.earlyCancel = sel.Limit >= 0
	}
	shardSQL := sql
	if len(spec.aggs) > 0 || spec.strip {
		shardSQL = sqlmini.Render(&shardSel)
	}
	replies, rows, ok := r.gather(ctx, w, pm, allPartitions(pm), shardSQL, c, &spec)
	if !ok {
		return
	}
	columns, merged, delay, err := mergeReplies(replies, &spec)
	if err != nil {
		server.WriteErr(w, http.StatusBadGateway, err)
		return
	}
	r.scatterFetched.Add(int64(rows))
	r.scatterRelayed.Add(int64(len(merged)))
	server.WriteQueryResponse(w, columns, merged, 0, delay)
}

// allPartitions lists every partition of pm.
func allPartitions(pm *PartitionMap) []int {
	parts := make([]int, len(pm.Owners))
	for p := range parts {
		parts[p] = p
	}
	return parts
}

// windowScanKeys bounds how many keys of a TopN window are hashed to
// find the partitions they fall in; a wider window is read from every
// partition, which any window of more than a few times P keys touches
// anyway.
const windowScanKeys = 4096

// scatterTopN answers a scatter ordered by the primary key with a LIMIT
// n and a bound on the side it starts from — a lower bound lo ascending,
// an upper bound descending — reading only what a node would read. The
// first round asks for the window [lo, lo+n−1] (descending: [hi−n+1,
// hi]), narrowed in the shard SQL, and only from the partitions those n
// keys hash to, on their primaries. When every key of the window holds
// a matching row, that round is the answer: the legs bring back n rows
// and the router relays n. A window that returns got < n rows, and does
// not reach the statement's far bound, gets one continuation round:
// the plain scatter over the keys past the window, with LIMIT n−got. No
// row is fetched twice, and there are never more than two rounds (each
// with its own failed-leg retries). It reports false, having written
// nothing, when sel is not such a TopN.
func (r *Router) scatterTopN(ctx context.Context, w http.ResponseWriter, pm *PartitionMap, sel *sqlmini.Select, spec mergeSpec, c *call) bool {
	k, ok := r.keyFor(sel.Table)
	if !ok || sel.Limit <= 0 || !strings.EqualFold(sel.Order.Column, k.name) {
		return false
	}
	lo, hi, hasLo, hasHi := sqlmini.PKBounds(sel.Where, k.name)
	n := int64(sel.Limit)
	// [from, to] is the window, beyond selects the keys past it, and last
	// is whether the window reaches the statement's far bound.
	var from, to int64
	var beyond sqlmini.Comparison
	var last bool
	if !sel.Order.Desc {
		if !hasLo || hasHi && hi < lo {
			return false
		}
		from, to = lo, lo+(n-1)
		if to < lo { // overflow
			to = math.MaxInt64
		}
		if hasHi && hi <= to {
			to = hi
		}
		last = to == math.MaxInt64 || hasHi && to == hi
		beyond = sqlmini.Comparison{Column: k.name, Op: sqlmini.OpGt, Value: intLit(to)}
	} else {
		if !hasHi || hasLo && lo > hi {
			return false
		}
		from, to = hi-(n-1), hi
		if from > hi { // overflow
			from = math.MinInt64
		}
		if hasLo && lo >= from {
			from = lo
		}
		last = from == math.MinInt64 || hasLo && from == lo
		beyond = sqlmini.Comparison{Column: k.name, Op: sqlmini.OpLt, Value: intLit(from)}
	}
	window := *sel
	window.Where = windowWhere(sel.Where, k.name, from, to)
	replies, rows, ok := r.gather(ctx, w, pm, windowPartitions(pm, from, to), sqlmini.Render(&window), c, &spec)
	if !ok {
		return true
	}
	columns, merged, delay, err := mergeReplies(replies, &spec)
	if err == nil && len(merged) < sel.Limit && !last {
		// The continuation round: the plain scatter past the window.
		more := *sel
		more.Where = &sqlmini.Where{Conjuncts: append(slices.Clip(sel.Where.Conjuncts), beyond)}
		more.Limit = sel.Limit - len(merged)
		rest := spec
		rest.limit = more.Limit
		moreReplies, moreRows, ok := r.gather(ctx, w, pm, allPartitions(pm), sqlmini.Render(&more), c, &rest)
		if !ok {
			return true
		}
		rows += moreRows
		var tail []server.RawRow
		var wait float64
		_, tail, wait, err = mergeReplies(moreReplies, &rest)
		merged = append(merged, tail...)
		delay += wait // the rounds ran one after the other
	}
	if err != nil {
		server.WriteErr(w, http.StatusBadGateway, err)
		return true
	}
	r.scatterFetched.Add(int64(rows))
	r.scatterRelayed.Add(int64(len(merged)))
	server.WriteQueryResponse(w, columns, merged, 0, delay)
	return true
}

// windowWhere returns where narrowed to the keys [from, to], in a Where
// of its own. A comparison of the key with an integer that every key of
// the window satisfies says nothing more, and is left out.
func windowWhere(where *sqlmini.Where, key string, from, to int64) *sqlmini.Where {
	out := &sqlmini.Where{Conjuncts: []sqlmini.Comparison{
		{Column: key, Op: sqlmini.OpGe, Value: intLit(from)},
		{Column: key, Op: sqlmini.OpLe, Value: intLit(to)},
	}}
	for _, c := range where.Conjuncts {
		if c.Value.Kind == sqlmini.IntLit && strings.EqualFold(c.Column, key) {
			v := c.Value.Int
			switch {
			case c.Op == sqlmini.OpGe && from >= v, c.Op == sqlmini.OpGt && from > v,
				c.Op == sqlmini.OpLe && to <= v, c.Op == sqlmini.OpLt && to < v:
				continue
			}
		}
		out.Conjuncts = append(out.Conjuncts, c)
	}
	return out
}

func intLit(v int64) sqlmini.Literal { return sqlmini.Literal{Kind: sqlmini.IntLit, Int: v} }

// windowPartitions lists, in order, the partitions of pm the keys from
// through to hash to: every partition once the window is wider than
// windowScanKeys.
func windowPartitions(pm *PartitionMap, from, to int64) []int {
	if uint64(to)-uint64(from) >= windowScanKeys {
		return allPartitions(pm)
	}
	hit := make([]bool, len(pm.Owners))
	seen := 0
	for key := from; seen < len(hit); key++ {
		if p := pm.PartitionOf(key); !hit[p] {
			hit[p] = true
			seen++
		}
		if key == to {
			break
		}
	}
	parts := make([]int, 0, seen)
	for p, in := range hit {
		if in {
			parts = append(parts, p)
		}
	}
	return parts
}

// gather runs one scatter round: shardSQL to one live replica per
// partition of parts, each leg filtered to the partitions it answers
// for, a failed leg's partitions retried on the surviving replicas for
// up to readRetryRounds. It returns the legs' replies and their row
// count; false means it wrote the client's error instead.
func (r *Router) gather(ctx context.Context, w http.ResponseWriter, pm *PartitionMap, parts []int, shardSQL string, c *call, spec *mergeSpec) ([]shardReply, int, bool) {
	P := len(pm.Owners)
	need := parts
	avoid := make(map[int]int)

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Legs report from their own goroutines as they finish; mu guards
	// what they share. Once done (LIMIT satisfied) or rejected (a shard
	// refused the statement) is set the laggards are cancelled and what
	// they come back with is dropped.
	var (
		mu       sync.Mutex
		replies  []shardReply
		last     *shardReply // remembered retryable shard answer for final relay
		rejected *shardReply
		rows     int // in replies
		done     bool
	)
	for round := 0; round < readRetryRounds && len(need) > 0 && !done; round++ {
		if round > 0 {
			r.readRetries.Inc()
			r.cfg.Clock.Sleep(rpcBackoff(round - 1))
		}
		cover, uncovered, ok := r.readCover(pm, need, avoid)
		if !ok {
			server.WriteErr(w, http.StatusServiceUnavailable,
				fmt.Errorf("partition %d unavailable: no readable replica", uncovered))
			return nil, 0, false
		}
		targets := make([]int, 0, len(cover))
		for i := range cover {
			targets = append(targets, i)
		}
		sortInts(targets)
		var redo []int
		r.fan(ctx, targets, func(slot int) *call {
			return legCall(c, server.QueryRequest{
				SQL:     shardSQL,
				PFilter: &server.PartitionFilter{Count: P, Include: cover[targets[slot]]},
			})
		}, func(slot int, leg fanLeg) {
			rep := r.decodeLeg(targets[slot], leg)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case done || rejected != nil:
			case rep.err != nil, rep.rep.status >= http.StatusInternalServerError:
				// Transport failure, truncated body, or shard 5xx: this
				// leg's partitions retry on the surviving replicas.
				for _, p := range cover[rep.node] {
					avoid[p] = rep.node
				}
				redo = append(redo, cover[rep.node]...)
				last = &rep
			case rep.rep.status != http.StatusOK:
				// Deterministic rejection — every replica would answer
				// the same; it relays once the other legs are called off.
				rejected = &rep
				cancel()
			default:
				replies = append(replies, rep)
				if rows += rep.resp.NumRows(); spec.earlyCancel && rows >= spec.limit {
					done = true
					cancel()
				}
			}
		})
		if rejected != nil {
			relay(w, rejected.rep)
			return nil, 0, false
		}
		need = redo
	}

	if r.pmap.Load() != pm {
		r.writePartitionStale(w)
		return nil, 0, false
	}
	if len(need) > 0 && !done {
		if last != nil && last.err == nil {
			relay(w, last.rep) // a shard's 5xx
			return nil, 0, false
		}
		detail := ""
		if last != nil {
			detail = ": " + last.err.Error()
		}
		server.WriteErr(w, http.StatusServiceUnavailable,
			fmt.Errorf("scan incomplete: %d partitions unavailable after retries%s", len(need), detail))
		return nil, 0, false
	}
	return replies, rows, true
}

// mergeReplies recombines per-shard partial results per the spec into
// the reply's columns, rows and delay. A row is relayed as the bytes its
// shard wrote; the merge decodes only what it must read of one — a sort
// key, an aggregate's partials.
func mergeReplies(replies []shardReply, spec *mergeSpec) (columns []string, rows []server.RawRow, delay float64, err error) {
	// Stable order: merge in node order, not arrival order.
	slices.SortStableFunc(replies, func(a, b shardReply) int { return a.node - b.node })
	total := 0
	for i := range replies {
		delay = max(delay, replies[i].resp.DelayMillis)
		total += replies[i].resp.NumRows()
	}
	if len(spec.aggs) > 0 {
		columns, rows, err = mergeAggregates(replies, spec)
		return columns, rows, delay, err
	}
	if len(replies) == 0 {
		return nil, nil, delay, nil
	}
	columns = replies[0].resp.Columns
	// key is the column the shards sorted on, sign the direction; with no
	// ORDER BY (key -1) no leg's row ever goes before an earlier leg's,
	// and the merge concatenates.
	key, sign := -1, 1
	if spec.order != nil {
		if key = spec.orderIdx; key < 0 {
			key = slices.IndexFunc(columns, func(c string) bool { return strings.EqualFold(c, spec.order.Column) })
		}
		if key < 0 {
			return nil, nil, 0, fmt.Errorf("order column %q missing from shard response", spec.order.Column)
		}
		if spec.order.Desc {
			sign = -1
		}
	}
	// A leg's head is its first unmerged row, and of that row the merge
	// decodes one cell: the sort key.
	type head struct {
		at  int
		key []byte
	}
	heads := make([]head, len(replies))
	advance := func(j int) {
		h, v := &heads[j], &replies[j].resp
		if h.at++; key >= 0 && h.at < v.NumRows() {
			h.key = v.Row(h.at).Cell(key)
		}
	}
	for j := range heads {
		// Every row of a leg is as wide as its columns (ScanQueryResponse),
		// and a SELECT's reply names them even when it has no rows.
		if v := &replies[j].resp; len(v.Columns) <= key {
			return nil, nil, 0, fmt.Errorf("%d columns from node %d: no column %d to merge on", len(v.Columns), replies[j].node, key)
		}
		heads[j].at = -1
		advance(j)
	}
	if spec.limit >= 0 && spec.limit < total {
		total = spec.limit
	}
	rows = make([]server.RawRow, 0, total)
	for len(rows) < total {
		// Ties break toward the lower node index, so the merged order is
		// deterministic.
		best := -1
		for j := range heads {
			switch {
			case heads[j].at >= replies[j].resp.NumRows():
			case best < 0:
				best = j
			case key >= 0 && sign*sqlmini.CompareCells(string(heads[j].key), string(heads[best].key)) < 0:
				best = j
			}
		}
		row := replies[best].resp.Row(heads[best].at)
		if spec.strip {
			row = row.DropLast()
		}
		rows = append(rows, row)
		advance(best)
	}
	if spec.strip {
		columns = columns[:len(columns)-1]
	}
	return columns, rows, delay, nil
}

// mergeAggregates combines shard-local partials into the final
// aggregate row, labeled exactly as a single node would label it.
func mergeAggregates(replies []shardReply, spec *mergeSpec) ([]string, []server.RawRow, error) {
	columns := make([]string, len(spec.aggs))
	for i, a := range spec.aggs {
		columns[i] = sqlmini.AggregateName(a)
	}
	partials := 0
	for _, parts := range spec.src {
		partials = max(partials, slices.Max(parts)+1)
	}
	for _, rep := range replies {
		if rep.resp.NumRows() == 0 {
			// LIMIT 0 on an aggregate yields no row; every shard ran
			// the same statement, so mirror it.
			return columns, nil, nil
		}
		if rep.resp.NumRows() != 1 {
			return nil, nil, fmt.Errorf("aggregate partial with %d rows from node %d", rep.resp.NumRows(), rep.node)
		}
		if len(rep.resp.Columns) < partials {
			return nil, nil, fmt.Errorf("%d columns from node %d, want the %d partials", len(rep.resp.Columns), rep.node, partials)
		}
	}
	cell := func(rep shardReply, part int) string {
		return string(rep.resp.Row(0).Cell(part))
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
					return nil, nil, fmt.Errorf("bad COUNT partial %q from node %d", cell(rep, parts[0]), rep.node)
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
					return nil, nil, fmt.Errorf("bad %s partial %q from node %d", a.Func, cell(rep, parts[0]), rep.node)
				}
				sum += s
				if a.Func == sqlmini.AggAvg {
					c, err := strconv.ParseInt(cell(rep, parts[1]), 10, 64)
					if err != nil {
						return nil, nil, fmt.Errorf("bad COUNT partial %q from node %d", cell(rep, parts[1]), rep.node)
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
					return nil, nil, fmt.Errorf("bad COUNT partial %q from node %d", cell(rep, parts[1]), rep.node)
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
			return nil, nil, fmt.Errorf("unmergeable aggregate %v", a.Func)
		}
	}
	return columns, []server.RawRow{server.NewRawRow(row)}, nil
}
