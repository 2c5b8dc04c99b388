// Package server exposes a Shield-protected database over HTTP — the
// "front door" of §1.1 that legitimate users and extraction robots alike
// must come through. Identities are taken from the X-Identity header when
// present (an account name) and otherwise from the client address, which
// combined with the Shield's subnet aggregation implements the paper's
// Sybil posture.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/engine"
)

// Server is the HTTP front end. Create with New, mount via Handler, or
// PublicHandler and Handler on two listeners.
type Server struct {
	shield   *core.Shield
	handler  http.Handler  // every route, wrapped in the recovery middleware
	public   http.Handler  // the public routes, wrapped likewise
	metrics  http.Handler  // the shield's instrument snapshot
	deadline time.Duration // 0 = no per-request deadline
}

// routes is every route Handler serves. The public ones are the front
// door a client needs; the rest belong on an internal listener: /metrics
// and /admin/topk reveal the popularity ranking, /admin/quote prices an
// extraction plan for free, /admin/suspects names the principals the
// detector is watching, and the anti-entropy, schema and migration
// routes let a caller forge sketches or move tuples.
var routes = []Route[*Server]{
	{"POST /query", (*Server).handleQuery, true},
	{"POST /register", (*Server).handleRegister, true},
	{"GET /stats", (*Server).handleStats, true},
	{"GET /healthz", (*Server).handleHealth, true},
	{"GET /metrics", (*Server).handleMetrics, false},
	{"GET /admin/topk", (*Server).handleTopK, false},
	{"POST /admin/quote", (*Server).handleQuote, false},
	{"GET /admin/suspects", (*Server).handleSuspects, false},
	// Anti-entropy surface for cluster mode: peers (or the router's
	// exchanger) pull sketch deltas with GET and push merges with POST.
	{"GET /admin/sketches", (*Server).handleSketchExport, false},
	{"POST /admin/sketches", (*Server).handleSketchAbsorb, false},
	// Schema surface for the partitioned router: which column keys each
	// table, so statements can be routed to the tuple's owner shard.
	{"GET /admin/schema", (*Server).handleSchema, false},
	// Tuple-migration data plane for the partitioned router's rebalance.
	{"POST /admin/migrate", (*Server).handleMigrate, false},
}

// Routes maps the pattern of every route Handler serves to whether
// PublicHandler serves it too.
func Routes() map[string]bool { return Patterns(routes) }

// Option configures a Server.
type Option func(*Server)

// WithQueryDeadline bounds each /query request: a query whose policy
// delay outlives d is cancelled (charged, but unanswered — HTTP 504).
// Zero means no deadline; the client's own disconnection still cancels.
func WithQueryDeadline(d time.Duration) Option {
	return func(s *Server) { s.deadline = d }
}

// New returns a server fronting shield.
func New(shield *core.Shield, opts ...Option) (*Server, error) {
	if shield == nil {
		return nil, errors.New("server: nil shield")
	}
	s := &Server{shield: shield, metrics: shield.Metrics().Handler()}
	for _, opt := range opts {
		opt(s)
	}
	s.handler, s.public = Mount(s, routes, shield.Metrics().Counter("server_panics_total"))
	return s, nil
}

// Handler returns the HTTP handler for mounting: every route, the admin
// ones included. Every route is wrapped in the panic-recovery
// middleware: a handler bug costs that request a 500, never the process.
func (s *Server) Handler() http.Handler { return s.handler }

// PublicHandler returns the handler for the listener clients reach: the
// public routes of the table only (see routes), recovery-wrapped like
// Handler.
func (s *Server) PublicHandler() http.Handler { return s.public }

// handleMetrics serves the instrument snapshot. Per-table pool gauges are
// re-synced on every scrape so tables created after startup show up
// without a restart.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.shield.SyncEngineMetrics()
	s.metrics.ServeHTTP(w, r)
}

// QueryRequest is the /query request body.
type QueryRequest struct {
	SQL string `json:"sql"`
	// PFilter, when set, restricts a SELECT to rows whose primary key
	// hashes into the named partitions. The cluster router attaches it
	// to scatter legs so a shard holding replicas of several partition
	// groups answers each scan leg for exactly the partitions it covers,
	// and the migrator uses it to stream one partition's slice.
	PFilter *PartitionFilter `json:"pfilter,omitempty"`
}

// QueryResponse is the /query response body.
type QueryResponse struct {
	Columns []string   `json:"columns,omitempty"`
	Rows    [][]string `json:"rows,omitempty"`
	// Affected counts rows changed by write statements.
	Affected int `json:"affected"`
	// DelayMillis is the pause the shield imposed before answering.
	DelayMillis float64 `json:"delay_millis"`
}

// ErrorResponse is any endpoint's error body.
type ErrorResponse struct {
	Error string `json:"error"`
}

// WriteJSON answers status with v as the JSON body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// WriteErr answers status with err as an ErrorResponse.
func WriteErr(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, ErrorResponse{Error: err.Error()})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	ServeQuery(w, r, func(buf *[]byte, req QueryRequest) error {
		// The request context propagates into the delay gate: a client
		// that disconnects releases its goroutine immediately instead of
		// pinning it for the remaining policy delay (the query stays
		// charged).
		ctx := r.Context()
		if s.deadline > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.deadline)
			defer cancel()
		}
		var parts *engine.PartitionSet
		if req.PFilter != nil {
			var err error
			if parts, err = req.PFilter.set(); err != nil {
				return err
			}
		}
		// The request owns its strings, so the buffer becomes the
		// reply's: a SELECT's rows are written into it as the engine
		// reads them, and what the delay then holds back is that reply.
		res, stats, err := s.shield.QueryInto(ctx, Identity(r), req.SQL, parts, replyEncoder{}, append((*buf)[:0], '{'))
		if err != nil {
			return err
		}
		*buf = appendReplyTail(res.Body, res.BodyRows, res.Affected, float64(stats.Delay)/float64(time.Millisecond))
		writeReply(w, *buf)
		return nil
	})
}

// RegisterRequest is the /register request body.
type RegisterRequest struct {
	Identity string `json:"identity"`
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	ServeRegister(w, r, func(_ []byte, identity string) error {
		if err := s.shield.Register(identity); err != nil {
			return err
		}
		WriteJSON(w, http.StatusOK, map[string]string{"status": "registered"})
		return nil
	})
}

// StatsResponse summarizes shield state.
type StatsResponse struct {
	Tables       []string `json:"tables"`
	Observations int64    `json:"observations"`
	DistinctIDs  int      `json:"distinct_ids"`
	Updates      int64    `json:"updates"`
	WindowSecs   float64  `json:"window_secs"`
	// Delay percentiles over served queries, milliseconds; present once
	// at least one query has been priced.
	QueriesServed int64   `json:"queries_served"`
	DelayP50Ms    float64 `json:"delay_p50_ms,omitempty"`
	DelayP99Ms    float64 `json:"delay_p99_ms,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := StatsResponse{
		Tables:        s.shield.DB().Tables(),
		Observations:  s.shield.Tracker().Observations(),
		DistinctIDs:   s.shield.Tracker().Len(),
		Updates:       s.shield.TuplesUpdated(),
		WindowSecs:    s.shield.Window(),
		QueriesServed: s.shield.QueriesServed(),
	}
	if p50, ok := s.shield.DelayQuantile(0.5); ok {
		resp.DelayP50Ms = float64(p50) / float64(time.Millisecond)
		if p99, ok := s.shield.DelayQuantile(0.99); ok {
			resp.DelayP99Ms = float64(p99) / float64(time.Millisecond)
		}
	}
	WriteJSON(w, http.StatusOK, resp)
}

// HealthResponse is the /healthz body. Status is "ok" or "degraded";
// degraded still answers 200 — the process is alive and serving reads —
// with the triggering I/O failure in Reason so probes and operators can
// see why writes are being refused.
type HealthResponse struct {
	Status string `json:"status"`
	Reason string `json:"reason,omitempty"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if on, cause := s.shield.Degraded(); on {
		WriteJSON(w, http.StatusOK, HealthResponse{Status: "degraded", Reason: cause})
		return
	}
	WriteJSON(w, http.StatusOK, HealthResponse{Status: "ok"})
}

// TopKEntry is one row of the /admin/topk response.
type TopKEntry struct {
	ID    uint64  `json:"id"`
	Count float64 `json:"count"`
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	k := 10
	if q := r.URL.Query().Get("k"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 1 || n > 10000 {
			WriteErr(w, http.StatusBadRequest, errors.New("k must be in [1, 10000]"))
			return
		}
		k = n
	}
	ids, counts := s.shield.TopK(k)
	out := make([]TopKEntry, len(ids))
	for i := range ids {
		out[i] = TopKEntry{ID: ids[i], Count: counts[i]}
	}
	WriteJSON(w, http.StatusOK, out)
}

// QuoteRequest is the /admin/quote request body.
type QuoteRequest struct {
	IDs []uint64 `json:"ids"`
}

// QuoteResponse prices the retrieval of the requested tuples under the
// current learned state, without perturbing it.
type QuoteResponse struct {
	DelayMillis float64 `json:"delay_millis"`
	Tuples      int     `json:"tuples"`
}

// maxQuoteIDs bounds one quote request, mirroring TopK's k ceiling.
const maxQuoteIDs = 10000

func (s *Server) handleQuote(w http.ResponseWriter, r *http.Request) {
	var req QuoteRequest
	if !DecodeBody(w, r, MaxBodyBytes, &req) {
		return
	}
	if len(req.IDs) == 0 {
		WriteErr(w, http.StatusBadRequest, errors.New("no tuple ids to quote"))
		return
	}
	if len(req.IDs) > maxQuoteIDs {
		WriteErr(w, http.StatusBadRequest, fmt.Errorf("%d ids exceed the %d per-request limit", len(req.IDs), maxQuoteIDs))
		return
	}
	// Unknown tuples have no price: a quote for them would just echo
	// the cold-tuple cap and imply the id exists.
	for _, id := range req.IDs {
		if !s.shield.DB().HasTuple(id) {
			WriteErr(w, http.StatusNotFound, fmt.Errorf("unknown tuple id %d", id))
			return
		}
	}
	d := s.shield.QuoteExtraction(req.IDs)
	WriteJSON(w, http.StatusOK, QuoteResponse{
		DelayMillis: float64(d) / float64(time.Millisecond),
		Tuples:      len(req.IDs),
	})
}

// SuspectsResponse is the /admin/suspects response body.
type SuspectsResponse struct {
	// Enabled is false when the shield runs without a detector; the
	// suspect list is then necessarily empty.
	Enabled bool `json:"enabled"`
	// Suspects ranks tracked principals by effective (own or coalition)
	// coverage, highest first.
	Suspects []detect.Suspect `json:"suspects"`
}

func (s *Server) handleSuspects(w http.ResponseWriter, r *http.Request) {
	k := 20
	if q := r.URL.Query().Get("k"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 1 || n > 10000 {
			WriteErr(w, http.StatusBadRequest, errors.New("k must be in [1, 10000]"))
			return
		}
		k = n
	}
	det := s.shield.Detector()
	if det == nil {
		WriteJSON(w, http.StatusOK, SuspectsResponse{Enabled: false, Suspects: []detect.Suspect{}})
		return
	}
	// Refresh coalition attributions so the ranking reflects the
	// present sketches, not the last cadence-driven sweep.
	det.Recluster()
	suspects := det.Suspects(k)
	if suspects == nil {
		suspects = []detect.Suspect{}
	}
	WriteJSON(w, http.StatusOK, SuspectsResponse{Enabled: true, Suspects: suspects})
}

// TableSchema is one table's routing-relevant shape in the
// /admin/schema response.
type TableSchema struct {
	Name string `json:"name"`
	// Key is the primary-key column name; its INT value identifies the
	// tuple to the delay defense and hashes to the tuple's partition.
	Key string `json:"key"`
	// KeyIndex is the key column's position, which locates the key in a
	// positional INSERT row when the router splits a bulk insert across
	// owner shards.
	KeyIndex int `json:"key_index"`
	// Columns lists every column with its type name, in schema order,
	// so the tuple migrator can re-render fetched rows as typed INSERT
	// literals on the destination shard.
	Columns []ColumnSchema `json:"columns,omitempty"`
}

// ColumnSchema is one column of a TableSchema.
type ColumnSchema struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

// SchemaResponse is the GET /admin/schema response body. A partitioned
// cluster router pulls it lazily to learn which WHERE conjunct pins a
// statement to one tuple (and therefore one owner shard).
type SchemaResponse struct {
	Tables []TableSchema `json:"tables"`
}

func (s *Server) handleSchema(w http.ResponseWriter, r *http.Request) {
	db := s.shield.DB()
	out := SchemaResponse{Tables: []TableSchema{}}
	for _, name := range db.Tables() {
		sch, err := db.Schema(name)
		if err != nil {
			continue // dropped between listing and lookup
		}
		cols := make([]ColumnSchema, len(sch.Columns))
		for i, c := range sch.Columns {
			cols[i] = ColumnSchema{Name: c.Name, Type: c.Type.String()}
		}
		out.Tables = append(out.Tables, TableSchema{
			Name:     sch.Table,
			Key:      sch.Columns[sch.Key].Name,
			KeyIndex: sch.Key,
			Columns:  cols,
		})
	}
	WriteJSON(w, http.StatusOK, out)
}

// SketchPage is the GET /admin/sketches response: the per-principal
// sketch snapshots observed locally since the requested watermark, plus
// the sequence to pass as ?since= on the next pull. Enabled is false
// when the shield runs without a detector (the page is then empty and
// Since is 0 — there is nothing to exchange).
type SketchPage struct {
	Enabled  bool                    `json:"enabled"`
	Since    uint64                  `json:"since"`
	Sketches []detect.SketchSnapshot `json:"sketches"`
}

// SketchAbsorbRequest is the POST /admin/sketches request body.
type SketchAbsorbRequest struct {
	Sketches []detect.SketchSnapshot `json:"sketches"`
}

// SketchAbsorbResponse reports the merge outcome. Rejected counts
// snapshots that failed to decode or whose sketch dimensions disagree
// with this node's detector configuration.
type SketchAbsorbResponse struct {
	Enabled  bool `json:"enabled"`
	Merged   int  `json:"merged"`
	Rejected int  `json:"rejected"`
}

// maxSketchBatch bounds one absorb request, mirroring maxQuoteIDs: a
// batch of full sketches is ~3 KiB each, so 10k caps a request at tens
// of megabytes rather than letting a peer stream unbounded state.
const maxSketchBatch = 10000

// maxSketchBody is that batch in bytes, with as much again for JSON
// framing: /admin/sketches is the one endpoint whose honest bodies
// outgrow MaxBodyBytes.
const maxSketchBody = 64 << 20

func (s *Server) handleSketchExport(w http.ResponseWriter, r *http.Request) {
	det := s.shield.Detector()
	if det == nil {
		WriteJSON(w, http.StatusOK, SketchPage{Enabled: false, Sketches: []detect.SketchSnapshot{}})
		return
	}
	var since uint64
	if q := r.URL.Query().Get("since"); q != "" {
		n, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			WriteErr(w, http.StatusBadRequest, errors.New("since must be a non-negative integer"))
			return
		}
		since = n
	}
	var floor float64
	if q := r.URL.Query().Get("floor"); q != "" {
		f, err := strconv.ParseFloat(q, 64)
		if err != nil || f < 0 || f > 1 {
			WriteErr(w, http.StatusBadRequest, errors.New("floor must be in [0, 1]"))
			return
		}
		floor = f
	}
	snaps, mark := det.ExportSince(since, floor)
	if snaps == nil {
		snaps = []detect.SketchSnapshot{}
	}
	WriteJSON(w, http.StatusOK, SketchPage{Enabled: true, Since: mark, Sketches: snaps})
}

func (s *Server) handleSketchAbsorb(w http.ResponseWriter, r *http.Request) {
	var req SketchAbsorbRequest
	if !DecodeBody(w, r, maxSketchBody, &req) {
		return
	}
	if len(req.Sketches) > maxSketchBatch {
		WriteErr(w, http.StatusBadRequest, fmt.Errorf("%d sketches exceed the %d per-request limit", len(req.Sketches), maxSketchBatch))
		return
	}
	det := s.shield.Detector()
	if det == nil {
		// Nothing to merge into; report so the exchanger can skip this
		// peer instead of re-sending forever.
		WriteJSON(w, http.StatusOK, SketchAbsorbResponse{Enabled: false})
		return
	}
	merged, rejected := det.Absorb(req.Sketches)
	WriteJSON(w, http.StatusOK, SketchAbsorbResponse{Enabled: true, Merged: merged, Rejected: rejected})
}

// Client is a minimal client for the server, used by examples and tests.
// It sends every request once: POST /query may carry a charged,
// delay-priced statement, and resending one on a connection error could
// execute — and charge — it twice.
type Client struct {
	base     string
	identity string
	http     *http.Client
}

// NewClient returns a client for the server at base (e.g.
// "http://localhost:8080") acting as the given identity.
func NewClient(base, identity string) *Client {
	return &Client{
		base:     base,
		identity: identity,
		http:     &http.Client{Timeout: 5 * time.Minute},
	}
}

// getJSON fetches base+path and decodes the body into out; a 5xx status
// is an error carrying the server's message.
func (c *Client) getJSON(path string, out any) error {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 500 {
		var e ErrorResponse
		json.NewDecoder(resp.Body).Decode(&e)
		return fmt.Errorf("server: %s (HTTP %d)", e.Error, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("server: decoding %s response: %w", path, err)
	}
	return nil
}

// Query runs sql through the front door.
func (c *Client) Query(sql string) (*QueryResponse, error) {
	body, err := json.Marshal(QueryRequest{SQL: sql})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, c.base+"/query", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-Identity", c.identity)
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e ErrorResponse
		json.NewDecoder(resp.Body).Decode(&e)
		return nil, fmt.Errorf("server: %s (HTTP %d)", e.Error, resp.StatusCode)
	}
	var out QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Register registers the client's identity.
func (c *Client) Register() error {
	body, _ := json.Marshal(RegisterRequest{Identity: c.identity})
	resp, err := c.http.Post(c.base+"/register", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e ErrorResponse
		json.NewDecoder(resp.Body).Decode(&e)
		return fmt.Errorf("server: %s (HTTP %d)", e.Error, resp.StatusCode)
	}
	return nil
}

// Stats fetches shield statistics.
func (c *Client) Stats() (*StatsResponse, error) {
	var out StatsResponse
	if err := c.getJSON("/stats", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Metrics fetches the shield's instrument snapshot from /metrics.
func (c *Client) Metrics() (map[string]any, error) {
	var out map[string]any
	if err := c.getJSON("/metrics", &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Health fetches /healthz.
func (c *Client) Health() (*HealthResponse, error) {
	var out HealthResponse
	if err := c.getJSON("/healthz", &out); err != nil {
		return nil, err
	}
	return &out, nil
}
