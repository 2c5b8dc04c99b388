package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/core"
)

// This file is the front door a client request comes through, a node's
// and the cluster router's alike: one route-table mount, one reader and
// decoder for POST /query and POST /register, and one mapping from a
// refusal to its status. Each door brings only what it does with an
// admitted request: a node runs it through its shield, the router
// routes it to its shards.

// Route is one entry of a front door's route table.
type Route[T any] struct {
	Pattern string
	Serve   func(T, http.ResponseWriter, *http.Request)
	Public  bool // served by the public handler too
}

// Patterns maps the pattern of every route in table to whether the
// public handler serves it too.
func Patterns[T any](table []Route[T]) map[string]bool {
	m := make(map[string]bool, len(table))
	for _, rt := range table {
		m[rt.Pattern] = rt.Public
	}
	return m
}

// Mount serves table's routes on t: all is every route, public the
// public ones only, both behind WithRecovery counting into panics. POST
// /query, the hot path every point query takes, skips the mux; a wrong
// method on /query still gets the mux's 405.
func Mount[T any](t T, table []Route[T], panics interface{ Inc() }) (all, public http.Handler) {
	mount := func(publicOnly bool) http.Handler {
		mux := http.NewServeMux()
		var query http.HandlerFunc
		for _, rt := range table {
			if publicOnly && !rt.Public {
				continue
			}
			serve := rt.Serve
			h := func(w http.ResponseWriter, r *http.Request) { serve(t, w, r) }
			mux.HandleFunc(rt.Pattern, h)
			if rt.Pattern == "POST /query" {
				query = h
			}
		}
		return WithRecovery(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if query != nil && r.Method == http.MethodPost && r.URL.Path == "/query" {
				query(w, r)
				return
			}
			mux.ServeHTTP(w, r)
		}), panics)
	}
	return mount(false), mount(true)
}

// WithRecovery wraps h so that a panicking handler produces a 500 (when
// nothing has been written yet) and bumps panics, instead of unwinding
// into net/http and killing the connection — or, for a panic on a
// goroutine the handler spawned, the whole process. http.ErrAbortHandler
// keeps its conventional meaning and is re-raised for net/http to
// swallow.
func WithRecovery(h http.Handler, panics interface{ Inc() }) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler { //nolint:errorlint // sentinel by identity
				panic(rec)
			}
			if panics != nil {
				panics.Inc()
			}
			// Best effort: if the handler already wrote a status this is a
			// no-op superfluous-WriteHeader, and the request dies mid-body.
			WriteErr(w, http.StatusInternalServerError,
				fmt.Errorf("internal error: %v", rec))
		}()
		h.ServeHTTP(w, r)
	})
}

// Identity resolves the principal for a request: its X-Identity header,
// else its remote address. The shard and the router resolve it alike.
func Identity(r *http.Request) string {
	if id := r.Header.Get("X-Identity"); id != "" {
		return id
	}
	return r.RemoteAddr
}

// requireJSON answers 415 and reports false unless the request's body is
// JSON: its content type is application/json, with or without parameters
// ("; charset=utf-8"), or it names none.
func requireJSON(w http.ResponseWriter, r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	if mt, _, _ := strings.Cut(ct, ";"); ct != "" && !strings.EqualFold(strings.TrimSpace(mt), "application/json") {
		WriteErr(w, http.StatusUnsupportedMediaType, fmt.Errorf("content type %q; want application/json", ct))
		return false
	}
	return true
}

// MaxBodyBytes bounds a request body on every endpoint of the shard and
// of the router (but /admin/sketches, see maxSketchBody): a handler
// buffers the whole body or string token, so without a bound one endless "sql"
// value exhausts the heap. It is sized above the largest body the
// cluster itself sends, a migration push page: migratePageLimit (512)
// rows of at most storage.MaxRecordSize (just under 4 KiB) are 2 MiB of
// row bytes, which JSON escaping can stretch six-fold (a control byte
// becomes \u00XX) to 12 MiB. A routed INSERT is never larger than the
// client statement it was split from, which passed this bound already.
const MaxBodyBytes = 16 << 20

// bodyErrStatus is the status for a request body that could not be read
// or decoded: 413 when it outgrew its http.MaxBytesReader, 400 otherwise.
func bodyErrStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// DecodeBody checks that r's body is JSON (requireJSON) and decodes it,
// reading at most limit bytes of it, into v: the reader of every admin
// route that takes a body. When it reports false it has written the
// error reply.
func DecodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	if !requireJSON(w, r) {
		return false
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v); err != nil {
		WriteErr(w, bodyErrStatus(err), fmt.Errorf("decoding request: %w", err))
		return false
	}
	return true
}

// readJSON refuses a body that is not JSON (415) and reads it, at most
// MaxBodyBytes of it (413), into buf. When it reports false it has
// written the refusal.
func readJSON(w http.ResponseWriter, r *http.Request, buf *[]byte) bool {
	if !requireJSON(w, r) {
		return false
	}
	body, err := readBody(http.MaxBytesReader(w, r.Body, MaxBodyBytes), (*buf)[:0])
	*buf = body
	if err != nil {
		WriteErr(w, bodyErrStatus(err), fmt.Errorf("reading request: %w", err))
		return false
	}
	return true
}

// ServeQuery is the front door of POST /query. It reads the body into a
// pooled buffer (readJSON), decodes it (400), refuses an empty
// statement (400), and hands the request to serve, with buf holding the
// body. serve answers a request it admits; an error it returns is
// answered by writeQueryErr. buf goes back to the pool once serve
// returns: until then serve may send the body on (the router's legs do)
// or build its reply in it (a node does).
func ServeQuery(w http.ResponseWriter, r *http.Request, serve func(buf *[]byte, q QueryRequest) error) {
	buf := bufPool.Get().(*[]byte)
	defer putBuf(buf)
	if !readJSON(w, r, buf) {
		return
	}
	q, err := ParseQueryRequest(*buf)
	switch {
	case err != nil:
		WriteErr(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
	case q.SQL == "":
		WriteErr(w, http.StatusBadRequest, errors.New("empty sql"))
	default:
		writeQueryErr(w, serve(buf, q))
	}
}

// ServeRegister is the front door of POST /register, read as ServeQuery
// reads /query: serve gets the body and the identity it names, which is
// never empty.
func ServeRegister(w http.ResponseWriter, r *http.Request, serve func(body []byte, identity string) error) {
	buf := bufPool.Get().(*[]byte)
	defer putBuf(buf)
	if !readJSON(w, r, buf) {
		return
	}
	var req RegisterRequest
	err := json.Unmarshal(*buf, &req)
	switch {
	case err != nil:
		WriteErr(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
	case req.Identity == "":
		WriteErr(w, http.StatusBadRequest, errors.New("empty identity"))
	default:
		writeQueryErr(w, serve(*buf, req.Identity))
	}
}

// ErrAtCapacity refuses a query at a door that has as many queries in
// flight as it admits (the cluster router's MaxInFlight).
var ErrAtCapacity = errors.New("at capacity")

// writeQueryErr answers a refused or failed request; a nil err answers
// nothing. Every 429 carries a Retry-After: the wait a core.WaitError
// names (a rate-limited principal's refill, the next registration slot),
// else 1 s (a full door, or a principal at delay.PrincipalWaitCap).
// ErrNotWriter is a 403 (the write did not run), ErrDegraded a 503
// (persistence is failing, so writes are refused rather than acknowledged
// unrecoverably; reads are unaffected), DeadlineExceeded a 504 with the
// delay still charged, and Canceled no answer (the client is gone).
func writeQueryErr(w http.ResponseWriter, err error) {
	switch {
	case err == nil:
	case errors.Is(err, core.ErrRateLimited), errors.Is(err, core.ErrRegistrationThrottled),
		errors.Is(err, core.ErrPrincipalBusy), errors.Is(err, ErrAtCapacity):
		secs := int64(1)
		if we := (*core.WaitError)(nil); errors.As(err, &we) {
			secs = max(secs, int64(math.Ceil(we.Wait.Seconds())))
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		WriteErr(w, http.StatusTooManyRequests, err)
	case errors.Is(err, core.ErrNotWriter):
		WriteErr(w, http.StatusForbidden, err)
	case errors.Is(err, core.ErrDegraded):
		WriteErr(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, context.DeadlineExceeded):
		WriteErr(w, http.StatusGatewayTimeout, fmt.Errorf("query exceeded the per-request deadline (the delay was still charged): %w", err))
	case errors.Is(err, context.Canceled):
		// Client gone; nothing useful can be written.
	default:
		WriteErr(w, http.StatusBadRequest, err)
	}
}
