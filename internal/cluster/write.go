package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"

	"repro/internal/server"
	"repro/internal/sqlmini"
)

// This file is the router's one write path. A statement that changes
// replicas — a single-key write, a split INSERT, a predicate
// UPDATE/DELETE, a DDL broadcast — names the partitions it
// touches, and applyWrite sends it, one leg per node, and decides the
// outcome by one rule:
//
//   - a partition acks iff a readable owner (not down, not resync)
//     answered 200, and the write acks iff every touched partition does;
//   - a reachable, readable owner that missed an acked write latches
//     resync before the ack is relayed, so every replica serving reads
//     holds every acked write;
//   - a migration gainer that failed, or was skipped because it is down,
//     marks its partition dirty for the migrator to re-copy; it never
//     fails the client;
//   - an unacked write relays the first owner rejection if no readable
//     owner accepted it anywhere (replicas agree on deterministic
//     rejections like a parse or duplicate-key error), and answers 503
//     otherwise.
//
// Its callers choose the lock and answer an acked write; nothing else.

// lockPartition takes partition p's write fence: partLocks shared, then
// p's mutex, always in that order. A single-key write, the migrator's
// fenced copy and a peer catch-up hold it; a write touching more than
// one partition, a broadcast and the migration cutover hold partLocks
// exclusively instead, which excludes every fence at once.
func (r *Router) lockPartition(p int) {
	r.partLocks.RLock()
	r.partMu[p].Lock()
}

// unlockPartition releases the fence lockPartition took.
func (r *Router) unlockPartition(p int) {
	r.partMu[p].Unlock()
	r.partLocks.RUnlock()
}

// writeKeyed applies a single-key write under its partition's fence, so
// two writes to one partition apply in the same order on every replica,
// and relays the acking owner's reply byte for byte.
func (r *Router) writeKeyed(ctx context.Context, w http.ResponseWriter, pm *PartitionMap, part int, c *call) {
	r.lockPartition(part)
	defer r.unlockPartition(part)
	// The map may have cut over while this write queued on the lock; its
	// partition assignment (and dual-write set) would be stale.
	if r.pmap.Load() != pm {
		r.writePartitionStale(w)
		return
	}
	if rep, _, ok := r.applyWrite(ctx, w, pm, []int{part}, c, nil); ok {
		r.relayUnder(w, pm, rep)
	}
}

// broadcast applies a statement every shard must agree on, a DDL, as a
// write to one partition whose group is every
// reachable node, including nodes that own no partition (they may gain
// one at the next rebalance and need the catalog). It holds partLocks
// exclusively, so a DDL orders against every tuple write the same way on
// every replica, and relays the acking node's reply.
func (r *Router) broadcast(ctx context.Context, w http.ResponseWriter, c *call) {
	r.partLocks.Lock()
	defer r.partLocks.Unlock()
	all := r.reachable()
	if len(all) == 0 {
		server.WriteErr(w, http.StatusServiceUnavailable, errors.New("no healthy shards"))
		return
	}
	every := &PartitionMap{Replicas: [][]int{all}}
	if rep, _, ok := r.applyWrite(ctx, w, every, []int{0}, c, nil); ok {
		relay(w, rep)
	}
}

// writeScatter applies a predicate write (sql) to every partition, or a
// split INSERT's rows (plan.ins) to the partitions they hash to, holding
// partLocks exclusively so replicas apply it at the same point in each
// partition's write order. Affected counts logical rows, not replica
// applications: a split INSERT acks its row count, and a predicate write
// pre-counts the matching rows through the partition-filtered
// maintenance channel (scatterCount) — summing per-shard counts would
// multiply by R and double-count migration copies. The delay is the
// largest leg's. A write left half-applied (a 503) is safe to re-issue
// for the statements the grammar has: an INSERT re-applied errors on the
// duplicate key, an UPDATE/DELETE re-applied is a no-op.
func (r *Router) writeScatter(ctx context.Context, w http.ResponseWriter, pm *PartitionMap, plan queryPlan, sql string, c *call) {
	r.partLocks.Lock()
	defer r.partLocks.Unlock()
	if r.pmap.Load() != pm {
		r.writePartitionStale(w)
		return
	}
	var (
		parts    []int
		sent     *call
		slice    func([]int) *call
		affected int64
	)
	if ins := plan.ins; ins != nil {
		parts = slices.Clone(plan.insParts)
		slices.Sort(parts)
		parts = slices.Compact(parts)
		slice = func(mine []int) *call {
			rows := make([][]sqlmini.Literal, 0, len(ins.Rows))
			for i, row := range ins.Rows {
				if slices.Contains(mine, plan.insParts[i]) {
					rows = append(rows, row)
				}
			}
			return legCall(c, server.QueryRequest{SQL: sqlmini.Render(&sqlmini.Insert{Table: ins.Table, Rows: rows})})
		}
		affected = int64(len(ins.Rows))
	} else {
		parts = make([]int, len(pm.Owners))
		for p := range parts {
			parts[p] = p
		}
		sent = legCall(c, server.QueryRequest{SQL: sql})
		// An unknown table is not pre-counted: the shards reject the
		// statement deterministically and the rejection relays, as does
		// their 4xx to the count (an unknown column, a table just dropped).
		if k, known := r.keyFor(plan.table); known {
			n, err := r.scatterCount(ctx, pm, plan.table, k.name, plan.where)
			var rejected *statusError
			switch {
			case errors.As(err, &rejected) && rejected.rep.status/100 == 4:
				relay(w, rejected.rep)
				return
			case err != nil:
				server.WriteErr(w, http.StatusServiceUnavailable,
					fmt.Errorf("counting matched rows before scatter write: %v", err))
				return
			}
			affected = n
		}
	}
	rep, legs, ok := r.applyWrite(ctx, w, pm, parts, sent, slice)
	switch {
	case !ok:
	case rep.status != http.StatusOK:
		relay(w, rep)
	default:
		// The largest delay a leg's 200 reports (rep is one of them, or
		// the only one); a body cut short reports none.
		var delay float64
		for _, leg := range append(legs, fanLeg{rep: rep}) {
			if v, err := server.ScanQueryResponse(leg.rep.body); leg.err == nil && leg.rep.status == http.StatusOK && err == nil {
				delay = max(delay, v.DelayMillis)
			}
		}
		server.WriteQueryResponse(w, nil, nil, int(affected), delay)
	}
}

// applyWrite sends a write touching parts, routed under pm, to every
// reachable owner and migration gainer of those partitions, and decides
// the outcome by the rule at the top of this file. Every node is sent c,
// unless slice is set: then a node is sent slice(the touched partitions
// it owns or gains), a split INSERT's rows for those partitions. It
// returns the reply to relay — the first touched partition's
// acking owner's 200, or an owner's rejection — and every leg (none on
// the single-target forward), or false after answering 503 itself.
func (r *Router) applyWrite(ctx context.Context, w http.ResponseWriter, pm *PartitionMap, parts []int, c *call, slice func([]int) *call) (reply, []fanLeg, bool) {
	// Targets, fixed under the caller's lock: the reachable owners of the
	// touched partitions, then the reachable gainers. Of a sliced write,
	// recv[slot] is what targets[slot] owns or gains.
	targets := make([]int, 0, len(r.nodes))
	var recv [][]int
	if slice != nil {
		recv = make([][]int, len(r.nodes))
	}
	add := func(i, p int) {
		slot := slices.Index(targets, i)
		if slot < 0 {
			slot = len(targets)
			targets = append(targets, i)
		}
		if recv != nil {
			recv[slot] = append(recv[slot], p)
		}
	}
	for _, p := range parts {
		reachable := false
		for _, i := range pm.Replicas[p] {
			if !r.nodes[i].down.Load() {
				add(i, p)
				reachable = true
			}
		}
		if !reachable {
			server.WriteErr(w, http.StatusServiceUnavailable,
				fmt.Errorf("partition %d unavailable: no reachable replica", p))
			return reply{}, nil, false
		}
	}
	owners := len(targets)
	for _, p := range parts {
		for _, g := range r.migrationGainers(pm, p) {
			if r.nodes[g].down.Load() {
				r.migrationMarkDirty(pm, p) // the in-flight copy misses this write
				continue
			}
			add(g, p)
		}
	}

	// Single-target forward — the R=1 steady state: no fan bookkeeping.
	// The sole target is an owner, and it must be readable: a success
	// confined to a writes-only resync replica is not an ack.
	if len(targets) == 1 && r.nodes[targets[0]].readable() {
		n, one := r.nodes[targets[0]], c
		if slice != nil {
			one = slice(recv[0])
		}
		rep, err := r.rpc(ctx, n, one)
		if err != nil {
			server.WriteErr(w, http.StatusServiceUnavailable, fmt.Errorf("shard %s unreachable: %v", n.name, err))
			return reply{}, nil, false
		}
		return rep, nil, true
	}

	r.writeFanout.Inc()
	legs := make([]fanLeg, len(targets))
	r.fan(ctx, targets, func(slot int) *call {
		if slice != nil {
			return slice(recv[slot])
		}
		return c
	}, func(slot int, leg fanLeg) { legs[slot] = leg })
	applied := func(slot int) bool {
		return slot >= 0 && legs[slot].err == nil && legs[slot].rep.status == http.StatusOK
	}
	for _, leg := range legs {
		if leg.err != nil {
			r.writeFanErr.Inc()
		}
	}
	for _, p := range parts {
		for _, g := range r.migrationGainers(pm, p) {
			if slot := slices.Index(targets, g); slot >= 0 && !applied(slot) {
				r.migrationMarkDirty(pm, p)
			}
		}
	}

	ack := -1 // the slot whose reply an acked write relays
	for _, p := range parts {
		slot := -1
		for _, i := range pm.Replicas[p] {
			if s := slices.Index(targets[:owners], i); applied(s) && r.nodes[i].readable() {
				slot = s
				break
			}
		}
		if slot < 0 {
			ack = -1
			break
		}
		if ack < 0 {
			ack = slot
		}
	}
	if ack >= 0 {
		// Every owner that did not apply it — it answered an error, or its
		// leg was dropped before the wire (cluster.fanout) — has diverged
		// from the replica set the client is told about. Owners that died
		// mid-write latched down inside rpc.
		diverged := false
		for slot := range owners {
			n := r.nodes[targets[slot]]
			if applied(slot) || n.down.Load() || n.resync.Load() {
				continue
			}
			n.latchResync()
			r.writeDiverged.Inc()
			diverged = true
		}
		if diverged {
			r.syncPeerDown()
		}
		return legs[ack].rep, legs, true
	}

	var rejection *reply
	readableOK, resyncOK := false, false
	for slot := range owners {
		switch {
		case applied(slot) && r.nodes[targets[slot]].readable():
			readableOK = true
		case applied(slot):
			resyncOK = true
		case legs[slot].err == nil && rejection == nil:
			rejection = &legs[slot].rep
		}
	}
	if rejection != nil && !readableOK {
		return *rejection, legs, true
	}
	msg := "write reached no replica"
	switch {
	case readableOK:
		msg = "scatter write partially applied: a partition has no read-serving replica that accepted it; retry when the cluster recovers"
	case resyncOK:
		msg = "write applied to no read-serving replica; retry when the cluster recovers"
	}
	server.WriteErr(w, http.StatusServiceUnavailable, errors.New(msg))
	return reply{}, nil, false
}
