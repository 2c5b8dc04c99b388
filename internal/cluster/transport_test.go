package cluster

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// contractShard is the shard the transport contract is read against:
// one path per reply shape, /echo to see a call from the far side, /park
// to hold one open.
func contractShard(entered chan<- struct{}) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		switch req.URL.Path {
		case "/ok":
			io.WriteString(w, `{"ok":true}`)
		case "/missing":
			w.WriteHeader(http.StatusNotFound)
			io.WriteString(w, `{"error":"no such tuple"}`)
		case "/broken":
			w.WriteHeader(http.StatusInternalServerError)
			io.WriteString(w, `{"error":"wal: disk failure"}`)
		case "/busy":
			w.Header().Set("Retry-After", "3")
			w.WriteHeader(http.StatusTooManyRequests)
			io.WriteString(w, `{"error":"throttled"}`)
		case "/empty":
		case "/big":
			// Past the server's 2 KiB buffer in several writes: a socket
			// carries it chunked.
			for i := 0; i < 100; i++ {
				w.Write(bytes.Repeat([]byte{byte('a' + i%26)}, 1024))
			}
		case "/echo":
			body, _ := io.ReadAll(req.Body)
			io.WriteString(w, strings.Join([]string{
				req.Method, req.URL.RequestURI(), req.Header.Get("Content-Type"),
				req.Header.Get("X-Identity"), string(body),
			}, "|"))
		case "/park":
			io.Copy(io.Discard, req.Body) // the server watches for a hang-up only once the body is read
			entered <- struct{}{}
			<-req.Context().Done()
		}
	})
}

// TestTransportContract holds the shard transport over a loopback
// socket to one table: a call is the request the shard sees and comes
// back as the reply it wrote, and a call its caller cancelled fails with
// the caller's error and costs the node nothing.
func TestTransportContract(t *testing.T) {
	big := make([]byte, 0, 100<<10)
	for i := 0; i < 100; i++ {
		big = append(big, bytes.Repeat([]byte{byte('a' + i%26)}, 1024)...)
	}
	const json = "application/json"
	table := []struct {
		call call
		want reply
	}{
		{call{method: http.MethodGet, path: "/ok"}, reply{200, json, "", []byte(`{"ok":true}`)}},
		{call{method: http.MethodGet, path: "/missing"}, reply{404, json, "", []byte(`{"error":"no such tuple"}`)}},
		{call{method: http.MethodPost, path: "/broken", body: []byte(`{}`)}, reply{500, json, "", []byte(`{"error":"wal: disk failure"}`)}},
		{call{method: http.MethodGet, path: "/busy"}, reply{429, json, "3", []byte(`{"error":"throttled"}`)}},
		{call{method: http.MethodGet, path: "/empty"}, reply{200, json, "", nil}},
		{call{method: http.MethodGet, path: "/big"}, reply{200, json, "", big}},
		{call{method: http.MethodGet, path: "/echo?k=5&floor=0.05"},
			reply{200, json, "", []byte("GET|/echo?k=5&floor=0.05|||")}},
		{call{method: http.MethodPost, path: "/echo", body: []byte(`{"sql":"SELECT 1"}`), identity: "alice"},
			reply{200, json, "", []byte(`POST|/echo|application/json|alice|{"sql":"SELECT 1"}`)}},
		{call{method: http.MethodPost, path: "/echo", body: []byte{}},
			reply{200, json, "", []byte("POST|/echo|application/json||")}},
	}
	entered := make(chan struct{}, 1)
	// One subtest, named for the one transport, so the test keeps the ID
	// it ran under beside an in-process row.
	t.Run("shard transport", func(t *testing.T) {
		node := localNode(t, "shard-0", contractShard(entered))
		r, err := NewRouter([]*Node{node}, Config{})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range table {
			got, err := node.rt.roundTrip(context.Background(), &c.call)
			if err != nil {
				t.Fatalf("%s %s: %v", c.call.method, c.call.path, err)
			}
			if got.status != c.want.status || got.contentType != c.want.contentType || got.retryAfter != c.want.retryAfter || !bytes.Equal(got.body, c.want.body) {
				t.Errorf("%s %s: reply {%d %q %q %.60q} (%d bytes), want {%d %q %q %.60q} (%d bytes)", c.call.method, c.call.path,
					got.status, got.contentType, got.retryAfter, got.body, len(got.body),
					c.want.status, c.want.contentType, c.want.retryAfter, c.want.body, len(c.want.body))
			}
		}

		// A context that is already over never reaches the shard.
		gone, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := r.rpc(gone, node, &call{method: http.MethodGet, path: "/ok"}); !errors.Is(err, context.Canceled) {
			t.Errorf("call under a cancelled context: err = %v, want context.Canceled", err)
		}
		// One that ends mid-call ends the call.
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			<-entered
			cancel()
		}()
		if _, err := r.rpc(ctx, node, &call{method: http.MethodPost, path: "/park", body: []byte(`{}`)}); !errors.Is(err, context.Canceled) {
			t.Errorf("call cancelled at the shard: err = %v, want context.Canceled", err)
		}
		if node.Down() || r.peerErrors.Value() != 0 || r.peerDown.Value() != 0 {
			t.Error("calls their own caller cancelled were booked against the node")
		}
		if n := node.InFlight(); n != 0 {
			t.Errorf("in-flight = %d with nothing in flight", n)
		}
	})
}

// TestTransportLetsGoOfTheBody is the property the refcounted body pool
// used to defend: the bytes of a call are the caller's again the moment
// roundTrip returns — even while the shard's handler, which the caller
// gave up on, has yet to read them. The caller here scribbles over the
// backing array at once, as the next request out of handleQuery's pool
// would; the handler must read the bytes that were sent.
func TestTransportLetsGoOfTheBody(t *testing.T) {
	const sent = `{"sql":"UPDATE items SET v = 'original' WHERE id = 1"}`
	entered, release := make(chan struct{}), make(chan struct{})
	read := make(chan string, 1)
	n := localNode(t, "shard-0", http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		close(entered)
		<-release // the caller has timed out and moved on
		body, _ := io.ReadAll(req.Body)
		read <- string(body)
	}))
	body := []byte(sent)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := n.rt.roundTrip(ctx, &call{method: http.MethodPost, path: "/query", body: body})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("round trip past its deadline: err = %v, want DeadlineExceeded", err)
	}
	for i := range body {
		body[i] = 'X'
	}
	<-entered
	close(release)
	if got := <-read; got != sent {
		t.Fatalf("the abandoned handler read %q, want the bytes of the call %q", got, sent)
	}
}

// TestCloseWaitsOutTheShardsHandlers: a caller that gives up on a call
// (a scatter calling off its laggards, -shard-timeout, a drain cut
// short) returns while the shard's handler still runs. Node.Close must
// not return before that handler has, because its owner closes the
// shard's database next.
func TestCloseWaitsOutTheShardsHandlers(t *testing.T) {
	entered := make(chan struct{})
	var finished atomic.Bool
	n := NewLocalNode("shard-0", http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		io.Copy(io.Discard, req.Body)
		close(entered)
		<-req.Context().Done()            // the router hung up
		time.Sleep(50 * time.Millisecond) // the statement's last work
		finished.Store(true)
	}))
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-entered
		cancel()
	}()
	q := &call{method: http.MethodPost, path: "/query", body: []byte(`{"sql":"SELECT 1"}`), identity: "alice"}
	if _, err := n.do(ctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("a call its caller cancelled: err = %v, want Canceled", err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if !finished.Load() {
		t.Fatal("Close returned while the shard's handler was still running")
	}
	if _, err := n.do(context.Background(), q); err == nil {
		t.Error("a call to a closed local node succeeded")
	}
}
