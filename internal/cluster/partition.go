package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/parthash"
	"repro/internal/server"
	"repro/internal/sqlmini"
)

// This file is the router's one topology: a versioned partition map
// assigning each tuple (by primary key) to a replica group of owner
// shards, and the per-statement planner that routes point queries and
// single-key writes to that one group while scans scatter to one live
// replica per partition. With R < N each shard holds ~R/N of the
// tuples: single-key writes touch R shards, not N, with no router-wide
// write ordering lock (rows in different partitions are different rows,
// so their relative order cannot diverge anything), and scatter scans
// run on all shards concurrently over their slices. Full replication is
// the R = N special case — every group is every node — and takes
// exactly the same paths. Detection stays globally coherent without any
// new machinery: each shard's detector observes only the tuple IDs it
// served, and the anti-entropy sketch exchange merges those per-slice
// sketches into the union view, so a coalition splitting its key range
// across partitions prices exactly as if one node saw the whole stream.

// DefaultPartitions is the partition count of the full-replication map
// (Config.Partitions == 0) and cmd/delaydb's suggested -partitions
// value; plenty of headroom to rebalance onto more shards without
// re-hashing tuples.
const DefaultPartitions = 64

// PartitionMap is an immutable, versioned assignment of partitions to
// replica groups of owner shards. Tuples hash (by INT primary key) to
// one of P partitions; each partition has R owner nodes, primary first.
// Rebalancing installs a new map with the next version — requests
// pinned to the old version are rejected retryably, never answered from
// a shard that may no longer own the tuple.
type PartitionMap struct {
	Version uint64
	// Owners maps partition index → primary node index. It always
	// equals column 0 of Replicas; kept as its own slice because the
	// single-replica hot paths index it constantly.
	Owners []int
	// Replicas maps partition index → its full replica group (primary
	// first, then failover order off the ring). Every group has the
	// same length: min(R, nodes).
	Replicas [][]int
}

// NewPartitionMap assigns partitions to replica groups via a
// consistent-hash ring over the nodes, so partition placement inherits
// the ring's balance properties. Each partition's
// group is the first `replication` distinct nodes of the ring's
// preference sequence, so replica choice is as stable as ownership.
// The partition index is pre-mixed through splitmix64 before it becomes
// a ring key: FNV-1a barely avalanches a trailing-byte change, so the
// naive keys "partition-0".."partition-63" would hash into one narrow
// arc of the ring and hand every partition to the same owner.
// replication < 1 means 1, and is clamped to the node count.
func NewPartitionMap(version uint64, partitions, nodes, replication int) (*PartitionMap, error) {
	if partitions < 1 {
		return nil, errors.New("cluster: partitions must be >= 1")
	}
	if nodes < 1 {
		return nil, errors.New("cluster: no nodes to own partitions")
	}
	if replication < 1 {
		replication = 1
	}
	if replication > nodes {
		replication = nodes
	}
	rg := newRing(nodes)
	m := &PartitionMap{
		Version:  version,
		Owners:   make([]int, partitions),
		Replicas: make([][]int, partitions),
	}
	for p := range m.Owners {
		seq := rg.sequence("partition-" + strconv.FormatUint(parthash.Mix64(uint64(p)), 16))
		group := append([]int(nil), seq[:replication]...)
		m.Replicas[p] = group
		m.Owners[p] = group[0]
	}
	return m, nil
}

// replication returns the replica-group size.
func (m *PartitionMap) replication() int {
	r := 1
	for _, g := range m.Replicas {
		if len(g) > r {
			r = len(g)
		}
	}
	return r
}

// PartitionOf returns the partition a primary key hashes to. The hash
// is pinned in parthash so the shard-side partition filter agrees bit
// for bit.
func (m *PartitionMap) PartitionOf(key int64) int {
	return parthash.Index(key, len(m.Owners))
}

// OwnerOf returns the primary node index for the tuple with the given
// primary key.
func (m *PartitionMap) OwnerOf(key int64) int {
	return m.Owners[m.PartitionOf(key)]
}

// GroupOf returns a copy of partition p's replica group, primary
// first — the torture harness and external tooling derive rebalance
// targets from it.
func (m *PartitionMap) GroupOf(p int) []int {
	return append([]int(nil), m.Replicas[p]...)
}

// ownerSet returns the distinct node indices holding any replica, in
// ascending order — the scatter-write target universe. Nodes owning no
// partition hold no tuples and are skipped.
func (m *PartitionMap) ownerSet() []int {
	seen := make(map[int]bool, len(m.Owners))
	out := make([]int, 0, len(m.Owners))
	for _, g := range m.Replicas {
		for _, n := range g {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	sortInts(out)
	return out
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// CurrentPartitionMap returns the live map, never nil. The map is
// immutable; callers must not mutate it.
func (r *Router) CurrentPartitionMap() *PartitionMap { return r.pmap.Load() }

// validateNextMap checks everything about a proposed map except its
// version — partition count preserved, every replica group non-empty,
// duplicate-free, and naming only known shards — and derives Owners,
// the primary column, from the groups.
func (r *Router) validateNextMap(m *PartitionMap) error {
	if m == nil {
		return errors.New("cluster: nil partition map")
	}
	if P := len(r.pmap.Load().Owners); len(m.Replicas) != P {
		return fmt.Errorf("cluster: partition count is fixed at %d (got %d)", P, len(m.Replicas))
	}
	for p, g := range m.Replicas {
		if len(g) == 0 {
			return fmt.Errorf("cluster: partition %d has no replicas", p)
		}
		seen := make(map[int]bool, len(g))
		for _, n := range g {
			if n < 0 || n >= len(r.nodes) {
				return fmt.Errorf("cluster: partition %d owned by unknown node index %d", p, n)
			}
			if seen[n] {
				return fmt.Errorf("cluster: partition %d lists node %d twice", p, n)
			}
			seen[n] = true
		}
	}
	m.Owners = make([]int, len(m.Replicas))
	for p, g := range m.Replicas {
		m.Owners[p] = g[0]
	}
	return nil
}

// writePartitionStale answers a request caught on the wrong side of a
// partition map swap: 409 with the current version and Retry-After: 0 —
// the client refreshes its pin and retries immediately; nothing was
// served from a shard that may no longer own the tuple.
func (r *Router) writePartitionStale(w http.ResponseWriter) {
	cur := r.pmap.Load()
	r.partVerRej.Inc()
	w.Header().Set("X-Partition-Version", strconv.FormatUint(cur.Version, 10))
	w.Header().Set("Retry-After", "0")
	server.WriteErr(w, http.StatusConflict,
		fmt.Errorf("partition map changed (current version %d); refresh and retry", cur.Version))
}

// tableKey is the routing-relevant slice of a table's schema: which
// column is the INT primary key (by name, for WHERE matching) and where
// it sits (by position, for splitting positional INSERT rows).
type tableKey struct {
	name string
	idx  int
}

// keyFor resolves a table's primary-key column, first from the snoop
// cache (CREATE TABLE statements pass through the router), then by
// pulling /admin/schema from a healthy shard — the cold path for
// routers fronting shards whose tables predate them.
func (r *Router) keyFor(table string) (tableKey, bool) {
	lc := strings.ToLower(table)
	if v, ok := r.schemas.Load(lc); ok {
		return v.(tableKey), true
	}
	r.fetchSchemas()
	if v, ok := r.schemas.Load(lc); ok {
		return v.(tableKey), true
	}
	return tableKey{}, false
}

func (r *Router) fetchSchemas() {
	r.schemaMu.Lock()
	defer r.schemaMu.Unlock()
	h := r.healthy()
	if len(h) == 0 {
		return
	}
	tables, err := r.shardTables(context.Background(), h[0])
	if err != nil {
		return
	}
	for _, t := range tables {
		r.schemas.Store(strings.ToLower(t.Name), tableKey{name: t.Key, idx: t.KeyIndex})
	}
}

// planKind enumerates the shapes a statement routes as.
type planKind int

const (
	// planBroadcast: DDL — every reachable shard must agree on the
	// catalog, so it applies everywhere under partLocks held exclusively.
	planBroadcast planKind = iota
	// planSingleRead: a point query pinned to one tuple's owner.
	planSingleRead
	// planSingleWrite: a write pinned to one tuple's owner.
	planSingleWrite
	// planScatterRead: a scan or aggregate over every owner's slice,
	// recombined by the merge executor.
	planScatterRead
	// planScatterWrite: a predicate write (UPDATE/DELETE without a key
	// pin) applied on every owner's slice.
	planScatterWrite
	// planSplitInsert: a multi-row INSERT sliced into one per-owner
	// INSERT over just the rows that owner holds.
	planSplitInsert
)

// queryPlan is the planner's verdict for one statement.
type queryPlan struct {
	kind planKind
	// part is the partition a single read/write pins, or -1 when the
	// statement is not tuple-routable and any readable shard answers for
	// the cluster: EXPLAIN (plans are identical modulo slice
	// statistics), or an INSERT every engine rejects identically. It
	// keys the per-partition write lock and the replica group.
	part int
	// sel is the parsed statement for planScatterRead, which the merge
	// executor rewrites (partial aggregates, order-column injection).
	sel *sqlmini.Select
	// ins and insParts carry a multi-partition INSERT for
	// planSplitInsert: the parsed statement plus each row's partition.
	// The per-node slices are rendered under the write's lock,
	// because with replication the target sets depend on migration
	// state that may move between planning and execution.
	ins      *sqlmini.Insert
	insParts []int
	// table and where are a planScatterWrite's target, which the write
	// pre-counts its matching rows over.
	table string
	where *sqlmini.Where
}

// planStatement classifies sql against the partition map. A parse
// failure is answered at the edge — no shard burns work on garbage.
func (r *Router) planStatement(pm *PartitionMap, sql string) (queryPlan, error) {
	stmt, err := sqlmini.Parse(sql)
	if err != nil {
		return queryPlan{}, err
	}
	switch s := stmt.(type) {
	case *sqlmini.Select:
		if s.Explain {
			return queryPlan{kind: planSingleRead, part: -1}, nil
		}
		if k, ok := r.keyFor(s.Table); ok {
			if key, ok := sqlmini.PKEqual(s.Where, k.name); ok {
				return queryPlan{kind: planSingleRead, part: pm.PartitionOf(key)}, nil
			}
		}
		return queryPlan{kind: planScatterRead, sel: s}, nil
	case *sqlmini.Insert:
		return r.planInsert(pm, s)
	case *sqlmini.Update:
		if k, ok := r.keyFor(s.Table); ok {
			if key, ok := sqlmini.PKEqual(s.Where, k.name); ok {
				return queryPlan{kind: planSingleWrite, part: pm.PartitionOf(key)}, nil
			}
		}
		return queryPlan{kind: planScatterWrite, table: s.Table, where: s.Where}, nil
	case *sqlmini.Delete:
		if k, ok := r.keyFor(s.Table); ok {
			if key, ok := sqlmini.PKEqual(s.Where, k.name); ok {
				return queryPlan{kind: planSingleWrite, part: pm.PartitionOf(key)}, nil
			}
		}
		return queryPlan{kind: planScatterWrite, table: s.Table, where: s.Where}, nil
	case *sqlmini.CreateTable:
		// Snoop the key column so the tuples this table will hold route
		// without a schema fetch.
		for i, col := range s.Columns {
			if col.PrimaryKey {
				r.schemas.Store(strings.ToLower(s.Table), tableKey{name: col.Name, idx: i})
				break
			}
		}
		return queryPlan{kind: planBroadcast}, nil
	case *sqlmini.DropTable:
		r.schemas.Delete(strings.ToLower(s.Table))
		return queryPlan{kind: planBroadcast}, nil
	default: // CREATE INDEX / DROP INDEX
		return queryPlan{kind: planBroadcast}, nil
	}
}

// planInsert routes an INSERT by the primary key of each row. All rows
// in one partition ship as-is to that partition's replica group; rows
// spanning partitions split into per-node INSERT slices, rendered
// later under the write's lock. A row whose key cannot be read
// positionally (unknown table, short row, non-INT key) routes the
// whole statement to one shard whose engine rejects it — a
// deterministic error with no tuple applied anywhere, so one shard's
// answer stands for the cluster's.
func (r *Router) planInsert(pm *PartitionMap, s *sqlmini.Insert) (queryPlan, error) {
	anyShard := queryPlan{kind: planSingleWrite, part: -1}
	k, ok := r.keyFor(s.Table)
	if !ok {
		return anyShard, nil
	}
	parts := make([]int, len(s.Rows))
	single := -1
	multi := false
	for i, row := range s.Rows {
		if k.idx >= len(row) || row[k.idx].Kind != sqlmini.IntLit {
			return anyShard, nil
		}
		parts[i] = pm.PartitionOf(row[k.idx].Int)
		if i == 0 {
			single = parts[i]
		} else if parts[i] != single {
			multi = true
		}
	}
	if !multi {
		return queryPlan{kind: planSingleWrite, part: single}, nil
	}
	// Rows on multiple partitions sharing one replica group still fan
	// as a split insert; the slices per node are just identical.
	return queryPlan{kind: planSplitInsert, ins: s, insParts: parts}, nil
}

// servePartitioned plans and dispatches one statement under the map the
// caller loaded: c is the client's /query call, sql the statement in
// its body. Admission has already run; the caller's pm pins the map
// version every routing decision and the final relay are checked
// against.
func (r *Router) servePartitioned(ctx context.Context, w http.ResponseWriter, pm *PartitionMap, sql string, c *call) {
	plan, err := r.planStatement(pm, sql)
	if err != nil {
		server.WriteErr(w, http.StatusBadRequest, err)
		return
	}
	switch plan.kind {
	case planBroadcast:
		r.broadcast(ctx, w, c)
	case planSingleRead:
		r.partSingleRead.Inc()
		if plan.part < 0 {
			r.serveAny(ctx, w, pm, c)
			return
		}
		r.serveReplicaRead(ctx, w, pm, plan.part, c)
	case planSingleWrite:
		r.partSingleWrite.Inc()
		if plan.part < 0 {
			r.serveAny(ctx, w, pm, c)
			return
		}
		r.writeKeyed(ctx, w, pm, plan.part, c)
	case planScatterRead:
		r.partScatter.Inc()
		r.scatterRead(ctx, w, pm, plan.sel, sql, c)
	case planScatterWrite:
		r.partScatter.Inc()
		r.writeScatter(ctx, w, pm, plan, sql, c)
	case planSplitInsert:
		r.partSplit.Inc()
		r.writeScatter(ctx, w, pm, plan, sql, c)
	}
}

// relayUnder relays a shard's reply, unless the map moved while it was
// computed: an answer routed under a superseded map is retracted as the
// 409 fence, like every other routed statement.
func (r *Router) relayUnder(w http.ResponseWriter, pm *PartitionMap, rep reply) {
	if r.pmap.Load() != pm {
		r.writePartitionStale(w)
		return
	}
	relay(w, rep)
}

// serveAny forwards a statement that is not tuple-routable to the first
// readable shard, whose answer stands for the cluster's.
func (r *Router) serveAny(ctx context.Context, w http.ResponseWriter, pm *PartitionMap, c *call) {
	h := r.healthy()
	if len(h) == 0 {
		server.WriteErr(w, http.StatusServiceUnavailable, errors.New("no healthy shards"))
		return
	}
	n := r.nodes[h[0]]
	rep, err := r.rpc(ctx, n, c)
	if err != nil {
		server.WriteErr(w, http.StatusServiceUnavailable, fmt.Errorf("shard %s unreachable: %v", n.name, err))
		return
	}
	r.relayUnder(w, pm, rep)
}

// PartitionMapResponse is the GET /admin/partition-map body.
type PartitionMapResponse struct {
	Version     uint64 `json:"version"`
	Partitions  int    `json:"partitions"`
	Replication int    `json:"replication"`
	// Replicas names each partition's replica group, primary first —
	// the form POST /admin/rebalance takes.
	Replicas [][]string `json:"replicas"`
}

func (r *Router) handlePartitionMapGet(w http.ResponseWriter, req *http.Request) {
	pm := r.pmap.Load()
	out := PartitionMapResponse{
		Version:     pm.Version,
		Partitions:  len(pm.Owners),
		Replication: pm.replication(),
		Replicas:    make([][]string, len(pm.Replicas)),
	}
	for p, g := range pm.Replicas {
		out.Replicas[p] = make([]string, len(g))
		for i, n := range g {
			out.Replicas[p][i] = r.nodes[n].name
		}
	}
	server.WriteJSON(w, http.StatusOK, out)
}

// PartitionMapUpdate is the POST /admin/rebalance body: a proposed map
// at exactly the next version (0 means the next). Replicas names the
// full group per partition, primary first; or a bare Replication
// re-derives the groups from the ring at the new size.
type PartitionMapUpdate struct {
	Version     uint64     `json:"version"`
	Replicas    [][]string `json:"replicas,omitempty"`
	Replication int        `json:"replication,omitempty"`
	// Wait makes POST /admin/rebalance run the migration synchronously
	// instead of answering 202 and migrating in the background.
	Wait bool `json:"wait,omitempty"`
}

// mapFromUpdate resolves an update body to a PartitionMap, which
// validateNextMap then checks against the live one.
func (r *Router) mapFromUpdate(up *PartitionMapUpdate) (*PartitionMap, error) {
	if len(up.Replicas) == 0 {
		if up.Replication <= 0 {
			return nil, errors.New("update names no replicas or replication")
		}
		return NewPartitionMap(up.Version, len(r.pmap.Load().Owners), len(r.nodes), up.Replication)
	}
	idx := make(map[string]int, len(r.nodes))
	for i, n := range r.nodes {
		idx[n.name] = i
	}
	m := &PartitionMap{Version: up.Version, Replicas: make([][]int, len(up.Replicas))}
	for p, names := range up.Replicas {
		m.Replicas[p] = make([]int, len(names))
		for i, name := range names {
			ni, ok := idx[name]
			if !ok {
				return nil, fmt.Errorf("partition %d: unknown node %q", p, name)
			}
			m.Replicas[p][i] = ni
		}
	}
	return m, nil
}

// InitIdentity is the principal ExecScript's statements reach the
// shards as. Shards that restrict writers (core.Config.Writers) admit it
// so the -init script loads; the router refuses any client that claims
// it.
const InitIdentity = "cluster-init"

// ExecScript runs a semicolon-separated statement script through the
// router's own planner — cmd/delaydb's -init path, so every row loads
// onto exactly the shards that own it. The script is parsed whole, as
// the engine's ExecScript parses it, before any statement runs.
// Statements bypass admission (it is the operator's own front door) but
// take the exact routing and merge paths client queries take.
func (r *Router) ExecScript(src string) error {
	_, stmts, err := sqlmini.ParseScript(src)
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	for _, stmt := range stmts {
		c := &call{
			method:   http.MethodPost,
			path:     "/query",
			body:     server.AppendQueryRequest(nil, server.QueryRequest{SQL: stmt}),
			identity: InitIdentity,
		}
		rec := &recordedResponse{header: make(http.Header), code: http.StatusOK}
		r.servePartitioned(context.Background(), rec, r.pmap.Load(), stmt, c)
		if rec.code != http.StatusOK {
			return fmt.Errorf("cluster: statement %q: %s: %s",
				stmt, http.StatusText(rec.code), bytes.TrimSpace(rec.body.Bytes()))
		}
	}
	return nil
}
