package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"slices"
	"sync/atomic"

	"repro/internal/server"
	"repro/internal/sqlmini"
)

// This file is the automated tuple migrator: POST /admin/rebalance
// proposes a next-version partition map and the router moves the tuples
// to match it before any request sees the new ownership. The protocol
// is copy-then-cutover with dual-writes bridging the gap:
//
//  1. While the migration runs, every write to a moving partition fans
//     to its future owners ("gainers") too. A gainer's failure never
//     fails the client — it marks the partition dirty for re-copy.
//  2. Each moving partition is copied under its write fence (the same
//     per-partition mutex single-key writes hold), one partition at a
//     time: purge the gainer's stale slice, then stream the owner's
//     slice page by page through the shard-side /admin/migrate plane.
//     Writes to OTHER partitions flow freely throughout.
//  3. Dirty partitions (a dual-write leg failed after their copy)
//     re-copy in bounded settle passes.
//  4. Cutover takes partLocks exclusively — blocking every
//     write for one final dirty re-copy — and installs the target map.
//     Requests pinned to the old version get the standard 409 fence.
//  5. Losing replicas purge their moved slices best-effort after the
//     cutover; a purge that fails leaves orphans the partition filter
//     already hides, and the next migration purges before copying.
//
// A copy failure after retries rolls the migration back: the source map
// stays live, gainers keep whatever partial slices landed (hidden by
// the filter, purged by the next attempt), and the error is reported in
// the progress record. No acked write is lost in either outcome: before
// cutover the old owners remain authoritative and never stopped
// applying writes; at cutover the final re-copy runs with all writes
// blocked, so the gainers are exact.

// migration is the live state of one rebalance.
type migration struct {
	source *PartitionMap
	target *PartitionMap
	// gainers[p]: target-group members not in the source group — the
	// nodes acquiring partition p, which dual-writes and the copier
	// must reach. losers[p]: source-group members not in the target
	// group, purged after cutover.
	gainers [][]int
	losers  [][]int
	// moving lists partitions with at least one gainer (copy required).
	moving []int
	// copied[p]: the fenced copy completed. dirty[p]: a dual-write leg
	// failed, the copy is stale and must re-run.
	copied []atomic.Bool
	dirty  []atomic.Bool

	partsDone     atomic.Int64
	tuplesCopied  atomic.Int64
	tuplesDeleted atomic.Int64
}

// MigrationProgress is the live (or last finished) rebalance, reported
// on /healthz and GET /admin/rebalance.
type MigrationProgress struct {
	Active        bool   `json:"active"`
	TargetVersion uint64 `json:"target_version,omitempty"`
	// State is "running", "done", or "rolled_back".
	State           string `json:"state,omitempty"`
	PartitionsTotal int    `json:"partitions_total"`
	PartitionsMoved int    `json:"partitions_moved"`
	TuplesCopied    int64  `json:"tuples_copied"`
	TuplesDeleted   int64  `json:"tuples_deleted"`
	Error           string `json:"error,omitempty"`
}

// migrationProgress snapshots the live migration, falling back to the
// last finished one. nil when no rebalance has ever run.
func (r *Router) migrationProgress() *MigrationProgress {
	if m := r.mig.Load(); m != nil {
		return &MigrationProgress{
			Active:          true,
			TargetVersion:   m.target.Version,
			State:           "running",
			PartitionsTotal: len(m.moving),
			PartitionsMoved: int(m.partsDone.Load()),
			TuplesCopied:    m.tuplesCopied.Load(),
			TuplesDeleted:   m.tuplesDeleted.Load(),
		}
	}
	return r.migLast.Load()
}

// migrationGainers returns the nodes acquiring partition p under the
// live migration, or nil. pm must be the map the caller routed under:
// a migration sourced from a different (superseded) map contributes no
// dual-write targets.
func (r *Router) migrationGainers(pm *PartitionMap, p int) []int {
	m := r.mig.Load()
	if m == nil || m.source != pm {
		return nil
	}
	return m.gainers[p]
}

// migrationMarkDirty records that partition p's copy missed a write
// (a dual-write leg failed or was skipped); the migrator re-copies it
// before cutover.
func (r *Router) migrationMarkDirty(pm *PartitionMap, p int) {
	m := r.mig.Load()
	if m == nil || m.source != pm {
		return
	}
	m.dirty[p].Store(true)
}

// startMigration validates target and registers the migration, turning
// dual-writes on. Serialized on migMu against concurrent rebalances
// and peer catch-ups.
func (r *Router) startMigration(target *PartitionMap) error {
	r.migMu.Lock()
	defer r.migMu.Unlock()
	if r.mig.Load() != nil {
		return errors.New("a rebalance is already running")
	}
	cur := r.pmap.Load()
	if err := r.validateNextMap(target); err != nil {
		return err
	}
	if target.Version != cur.Version+1 {
		return fmt.Errorf("partition map version must be %d (got %d)", cur.Version+1, target.Version)
	}
	P := len(cur.Owners)
	m := &migration{
		source:  cur,
		target:  target,
		gainers: make([][]int, P),
		losers:  make([][]int, P),
		copied:  make([]atomic.Bool, P),
		dirty:   make([]atomic.Bool, P),
	}
	for p := 0; p < P; p++ {
		src := make(map[int]bool)
		for _, i := range cur.Replicas[p] {
			src[i] = true
		}
		dst := make(map[int]bool)
		for _, i := range target.Replicas[p] {
			dst[i] = true
			if !src[i] {
				m.gainers[p] = append(m.gainers[p], i)
			}
		}
		for _, i := range cur.Replicas[p] {
			if !dst[i] {
				m.losers[p] = append(m.losers[p], i)
			}
		}
		if len(m.gainers[p]) > 0 {
			m.moving = append(m.moving, p)
		}
	}
	r.mig.Store(m)
	return nil
}

// migrationSettlePasses bounds the dirty re-copy rounds before cutover
// forces the remainder under the exclusive lock.
const migrationSettlePasses = 5

// migrationCopyRetries bounds per-partition copy attempts before the
// migration rolls back.
const migrationCopyRetries = 3

// runMigration executes the registered migration to completion:
// per-partition fenced copies, dirty settling, exclusive-lock cutover,
// then best-effort loser purges.
func (r *Router) runMigration() error {
	m := r.mig.Load()
	if m == nil {
		return errors.New("no migration registered")
	}
	ctx := context.Background()

	for _, p := range m.moving {
		if err := r.copyPartitionFenced(ctx, m, p); err != nil {
			return r.finishMigration(m, "rolled_back", err)
		}
		m.partsDone.Add(1)
		r.migPartsDone.Inc()
	}

	for pass := 0; pass < migrationSettlePasses; pass++ {
		var redo []int
		for _, p := range m.moving {
			if m.dirty[p].Load() {
				redo = append(redo, p)
			}
		}
		if len(redo) == 0 {
			break
		}
		for _, p := range redo {
			if err := r.copyPartitionFenced(ctx, m, p); err != nil {
				return r.finishMigration(m, "rolled_back", err)
			}
		}
	}

	// Cutover: block every write, force any remaining dirty partitions
	// exact, and swap the map — the only place the map ever changes.
	// From the instant of the swap, requests route (and fence) by the
	// target map.
	r.partLocks.Lock()
	for _, p := range m.moving {
		if !m.dirty[p].Load() {
			continue
		}
		if err := r.copyPartition(ctx, m, p); err != nil {
			r.partLocks.Unlock()
			return r.finishMigration(m, "rolled_back", err)
		}
	}
	r.pmap.Store(m.target)
	r.partLocks.Unlock()

	// The map is live; old owners purge their moved slices. Best
	// effort — a failure leaves orphans the partition filter hides and
	// the next migration's pre-copy purge removes.
	for p, losers := range m.losers {
		for _, i := range losers {
			if r.nodes[i].down.Load() {
				continue
			}
			if n, perr := r.purgeSlice(ctx, i, p, len(m.target.Owners)); perr == nil {
				m.tuplesDeleted.Add(n)
			}
		}
	}
	return r.finishMigration(m, "done", nil)
}

// finishMigration retires the live migration into the last-run record.
func (r *Router) finishMigration(m *migration, state string, err error) error {
	prog := &MigrationProgress{
		TargetVersion:   m.target.Version,
		State:           state,
		PartitionsTotal: len(m.moving),
		PartitionsMoved: int(m.partsDone.Load()),
		TuplesCopied:    m.tuplesCopied.Load(),
		TuplesDeleted:   m.tuplesDeleted.Load(),
	}
	if err != nil {
		prog.Error = err.Error()
	}
	r.migLast.Store(prog)
	r.mig.Store(nil)
	return err
}

// copyPartitionFenced copies one partition under its write fence, with
// bounded retries: writes to this partition queue for the copy's
// duration; writes to every other partition flow.
func (r *Router) copyPartitionFenced(ctx context.Context, m *migration, p int) error {
	var err error
	for attempt := 0; attempt < migrationCopyRetries; attempt++ {
		if attempt > 0 {
			r.cfg.Clock.Sleep(rpcBackoff(attempt - 1))
		}
		r.lockPartition(p)
		err = r.copyPartition(ctx, m, p)
		r.unlockPartition(p)
		if err == nil {
			return nil
		}
	}
	return fmt.Errorf("copying partition %d: %w", p, err)
}

// copyPartition copies partition p's slice from a readable source
// replica onto every gainer. Caller holds the partition's write fence
// (or partLocks exclusively), so no write can land mid-copy and
// clearing the dirty bit first is safe.
func (r *Router) copyPartition(ctx context.Context, m *migration, p int) error {
	src := r.firstReadable(m.source.Replicas[p])
	if src < 0 {
		return fmt.Errorf("partition %d has no readable source replica", p)
	}
	m.dirty[p].Store(false)
	for _, g := range m.gainers[p] {
		if r.nodes[g].down.Load() {
			return fmt.Errorf("gainer %s is down", r.nodes[g].name)
		}
		copied, deleted, err := r.copySlice(ctx, src, g, p, len(m.source.Owners))
		m.tuplesCopied.Add(copied)
		m.tuplesDeleted.Add(deleted)
		r.migTuples.Add(copied)
		if err != nil {
			return err
		}
	}
	m.copied[p].Store(true)
	return nil
}

// copySlice makes dst's slice of partition p (under a count-way split)
// an exact copy of src's: purge, then stream pulls into idempotent
// pushes. Returns tuples copied and deleted.
func (r *Router) copySlice(ctx context.Context, src, dst, p, count int) (int64, int64, error) {
	deleted, err := r.purgeSlice(ctx, dst, p, count)
	if err != nil {
		return 0, deleted, err
	}
	tables, err := r.shardTables(ctx, src)
	if err != nil {
		return 0, deleted, err
	}
	filter := &server.PartitionFilter{Count: count, Include: []int{p}}
	var copied int64
	for _, t := range tables {
		after := int64(math.MinInt64)
		for {
			page, err := r.adminMigrate(ctx, src, &server.MigrateRequest{
				Op: "pull", Table: t.Name, Filter: filter, After: after,
			})
			if err != nil {
				return copied, deleted, fmt.Errorf("pulling %s from %s: %w", t.Name, r.nodes[src].name, err)
			}
			if len(page.Rows) > 0 {
				if _, err := r.adminMigrate(ctx, dst, &server.MigrateRequest{
					Op: "push", Table: t.Name, Rows: page.Rows,
				}); err != nil {
					return copied, deleted, fmt.Errorf("pushing %s to %s: %w", t.Name, r.nodes[dst].name, err)
				}
				copied += int64(len(page.Rows))
			}
			if page.Done {
				break
			}
			after = page.Next
		}
	}
	return copied, deleted, nil
}

// purgeSlice deletes node's copy of partition p across every table it
// holds. Returns tuples deleted.
func (r *Router) purgeSlice(ctx context.Context, node, p, count int) (int64, error) {
	tables, err := r.shardTables(ctx, node)
	if err != nil {
		return 0, err
	}
	filter := &server.PartitionFilter{Count: count, Include: []int{p}}
	var deleted int64
	for _, t := range tables {
		after := int64(math.MinInt64)
		for {
			page, err := r.adminMigrate(ctx, node, &server.MigrateRequest{
				Op: "purge", Table: t.Name, Filter: filter, After: after,
			})
			if err != nil {
				return deleted, fmt.Errorf("purging %s on %s: %w", t.Name, r.nodes[node].name, err)
			}
			deleted += int64(page.Applied)
			if page.Done {
				break
			}
			after = page.Next
		}
	}
	return deleted, nil
}

// shardTables pulls a shard's table list (with schemas) off its admin
// plane.
func (r *Router) shardTables(ctx context.Context, node int) ([]server.TableSchema, error) {
	var sr server.SchemaResponse
	err := r.rpcJSON(ctx, r.nodes[node], http.MethodGet, "/admin/schema", nil, &sr)
	return sr.Tables, err
}

// adminMigrate runs one migration op on a shard's admin plane. Like
// every RPC it goes through Router.rpc: a transport failure latches the
// shard down, and the cluster.rpc failpoint injects here too — the
// torture harness must see migrations survive (or cleanly roll back
// under) the same faults the query plane takes.
func (r *Router) adminMigrate(ctx context.Context, node int, mreq *server.MigrateRequest) (*server.MigrateResponse, error) {
	var out server.MigrateResponse
	if err := r.rpcJSON(ctx, r.nodes[node], http.MethodPost, "/admin/migrate", mreq, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// scatterCount pre-counts the rows a predicate write will affect: the
// statement's WHERE, projected to the key column, partition-filtered
// across a primary cover so every row counts exactly once regardless
// of replication or in-flight copies. Runs on the migration plane (the
// count is bookkeeping, not a client read — it must not be priced or
// observed as one).
func (r *Router) scatterCount(ctx context.Context, pm *PartitionMap, table, keyCol string, where *sqlmini.Where) (int64, error) {
	P := len(pm.Owners)
	parts := make([]int, P)
	for p := range parts {
		parts[p] = p
	}
	cover, uncovered, ok := r.readCover(pm, parts, nil)
	if !ok {
		return 0, fmt.Errorf("partition %d unavailable: no readable replica", uncovered)
	}
	sql := sqlmini.Render(&sqlmini.Select{Table: table, Columns: []string{keyCol}, Where: where, Limit: -1})
	var total int64
	for node, include := range cover {
		page, err := r.adminMigrate(ctx, node, &server.MigrateRequest{
			Op: "count", SQL: sql,
			Filter: &server.PartitionFilter{Count: P, Include: include},
		})
		if err != nil {
			return 0, err
		}
		total += int64(page.Count)
	}
	return total, nil
}

// handleRebalanceGet reports migration progress.
func (r *Router) handleRebalanceGet(w http.ResponseWriter, req *http.Request) {
	prog := r.migrationProgress()
	if prog == nil {
		prog = &MigrationProgress{Active: false}
	}
	server.WriteJSON(w, http.StatusOK, prog)
}

// handleRebalancePost proposes a next-version map and migrates the
// tuples to match it — the one way the partition map changes. The body
// is a PartitionMapUpdate: explicit Replicas, or a bare Replication to
// re-derive groups from the ring (the "turn on R=2" one-liner).
// Asynchronous by default (202; poll GET /admin/rebalance); Wait runs it
// synchronously.
func (r *Router) handleRebalancePost(w http.ResponseWriter, req *http.Request) {
	var up PartitionMapUpdate
	if !server.DecodeBody(w, req, server.MaxBodyBytes, &up) {
		return
	}
	if up.Version == 0 {
		up.Version = r.pmap.Load().Version + 1
	}
	target, err := r.mapFromUpdate(&up)
	if err != nil {
		server.WriteErr(w, http.StatusBadRequest, err)
		return
	}
	if err := r.startMigration(target); err != nil {
		server.WriteErr(w, http.StatusConflict, err)
		return
	}
	if up.Wait {
		if err := r.runMigration(); err != nil {
			server.WriteErr(w, http.StatusBadGateway, fmt.Errorf("migration rolled back: %w", err))
			return
		}
		server.WriteJSON(w, http.StatusOK, map[string]any{"status": "rebalanced", "version": target.Version})
		return
	}
	go r.runMigration() //nolint:errcheck // outcome lands in migLast for GET /admin/rebalance
	server.WriteJSON(w, http.StatusAccepted, map[string]any{"status": "migrating", "version": target.Version})
}

// CatchUpPeer returns a peer to the read plane — the one way back: for
// every partition the peer replicates that has another readable source,
// re-copy the slice under the partition's write fence, then clear both
// latches.
func (r *Router) CatchUpPeer(name string) error {
	r.migMu.Lock()
	defer r.migMu.Unlock()
	if r.mig.Load() != nil {
		return errors.New("a rebalance is running; retry after it completes")
	}
	pm := r.pmap.Load()
	ni := r.nodeIndex(name)
	if ni < 0 {
		return fmt.Errorf("unknown peer %q", name)
	}
	ctx := context.Background()
	for p, group := range pm.Replicas {
		if !slices.Contains(group, ni) {
			continue
		}
		src := -1
		for _, i := range group {
			if i != ni && r.nodes[i].readable() {
				src = i
				break
			}
		}
		if src < 0 {
			// No readable source for this partition. If the peer was the
			// LAST member of the group to leave the read plane, its copy
			// is complete — an acked write that fails on a readable
			// replica quarantines it immediately, so every replica holds
			// every write acked while it was readable, and the freshest
			// latch saw them all (the R=1 sole-owner case is the trivial
			// instance). A staler member must NOT be cleared first: its
			// catch-up would either skip the hole or, worse, later serve
			// as the purge-and-copy source for the complete replica.
			// Refuse and name the peer the operator must resync first.
			if r.nodes[ni].readable() {
				continue // already on the read plane; nothing missed
			}
			peerSeq := r.nodes[ni].latchSeq.Load()
			blocker := -1
			for _, i := range group {
				if i != ni && r.nodes[i].latchSeq.Load() > peerSeq {
					blocker = i
				}
			}
			if blocker >= 0 {
				return fmt.Errorf(
					"partition %d has no readable replica and %s is not its freshest copy; resync %s first",
					p, name, r.nodes[blocker].name)
			}
			continue
		}
		r.lockPartition(p)
		_, _, err := r.copySlice(ctx, src, ni, p, len(pm.Owners))
		r.unlockPartition(p)
		if err != nil {
			return fmt.Errorf("resyncing partition %d: %w", p, err)
		}
	}
	n := r.nodes[ni]
	n.down.Store(false)
	n.resync.Store(false)
	// Every anti-entropy watermark resets: the peer missed rounds (and
	// may have restarted), so the next exchange re-pulls full history and
	// re-converges its sketches.
	r.ae.mu.Lock()
	clear(r.ae.marks)
	r.ae.mu.Unlock()
	r.syncPeerDown()
	return nil
}

// ResyncRequest is the POST /admin/resync body: the peer to catch up.
type ResyncRequest struct {
	Name string `json:"name"`
}

// handleResync is POST /admin/resync: CatchUpPeer over HTTP. A name no
// node carries is a 404; a catch-up that cannot run (a rebalance in
// flight, a staler replica ahead of the fresh one, a copy that failed)
// is a 409.
func (r *Router) handleResync(w http.ResponseWriter, req *http.Request) {
	var rr ResyncRequest
	if !server.DecodeBody(w, req, server.MaxBodyBytes, &rr) {
		return
	}
	if r.nodeIndex(rr.Name) < 0 {
		server.WriteErr(w, http.StatusNotFound, fmt.Errorf("unknown peer %q", rr.Name))
		return
	}
	if err := r.CatchUpPeer(rr.Name); err != nil {
		server.WriteErr(w, http.StatusConflict, err)
		return
	}
	server.WriteJSON(w, http.StatusOK, map[string]string{"status": "resynced", "name": rr.Name})
}
