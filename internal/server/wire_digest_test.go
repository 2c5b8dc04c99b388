package server_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/vclock"
)

// goldenWire holds the SHA-256 of everything the front door wrote to the
// socket for one request — status line, headers (Date dropped), framing
// and body — recorded on the commit before /query left encoding/json
// (PR 15). Clients parse these bytes and the benchmark's frozen reference
// speeds assume their framing, so a change to how a reply is *produced*
// must reproduce them; a change that means to alter the wire records new
// values with WIRE_DIGEST_PRINT=1.
var goldenWire = map[string]string{
	"shard/point":          "1244a320d6d312127cf0d73b8a3390e32059fc3e3ce2f7c820a0818fa48ecf57",
	"shard/scan1000":       "edcee44692ef837dc0ee79c35e262690666aa00ba65290e12bdd5484396d2df6",
	"shard/write":          "1ab85156f316cd520568df4105329c85011052290de006e9bedb79157feb6942",
	"shard/empty":          "54d1fbe5e32762c3168be5bbf854e3ef2c9f052d547989e65eaa12aead756170",
	"shard/pfilter":        "befd702001d03ff18e632cebf9d1ebe5e82259fa7f1a418e213a77290b5c05b5",
	"shard/pfilter-agg":    "16084c8c3fdd7bcbbd8f21d4c65b2ef0dc118aae053e98a97fbc25788365c176",
	"shard/pfilter-limit0": "5cae6bfde12536a1fa1c6263acf3ae16c28b210b986e1c250152bad912817092",
	"shard/error":          "705f69896bf09511fa2a193a2972323d31e327bb0072e700ec1fb67482e555f7",
	"router/point":         "0013fdb577066223fc800cfe453c2854a0f74188099e11a21085e9e0732af2ea",
	"router/merged-order":  "12c94e898418bcca4c7905281de694890e7f648723e52fd06cba199f0a875822",
	"router/merged-strip":  "9776caf01b87019a227422956a290f2e73ff901b2a52e34a7e4a8975d845b0ab",
	"router/merged-agg":    "9bc60375f8421c6cce75a7f5dc19052f7d22b843f19ca18db63d2e09f403da76",
	"router/merged-limit":  "8d85b9c345db00d18a7783362712ec666f3ad21b56b20b78014d3e4f7c44265e",
	"router/scatter-write": "3319b5c83bb9c4c6d2c0f627507424ddc3af4be65c4d0e155d7a58630eb7c3e0",
}

// wireRows is the fixture: ids 1..n with a text column that exercises
// every escape the encoder knows (HTML-unsafe bytes, quotes, control
// bytes, U+2028, invalid UTF-8) and a float column with integral,
// fractional and negative values — and, with extremes, values whose text
// has an exponent, which only a shard loaded directly can hold: the
// router re-renders a split INSERT and the SQL lexer reads no exponents.
func wireRows(lo, hi int, extremes bool) string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO items VALUES ")
	for i := lo; i <= hi; i++ {
		if i > lo {
			sb.WriteString(", ")
		}
		v := fmt.Sprintf("v%d", i)
		switch i % 10 {
		case 3:
			v += ` <b>&"q"\</b>`
		case 5:
			v += "\t\u2028\u00e9\x01"
		case 7:
			v += "\xff\xfe"
		}
		f := float64(i) / 8
		switch {
		case i%10 == 8:
			f = -float64(i)
		case extremes && i%10 == 4:
			f = float64(i) * 1e21
		case extremes && i%10 == 6:
			f = float64(i) * 1e-9
		}
		lit := strconv.FormatFloat(f, 'f', -1, 64)
		if !strings.Contains(lit, ".") {
			lit += ".0"
		}
		fmt.Fprintf(&sb, "(%d, '%s', %s)", i, v, lit)
	}
	return sb.String()
}

func wireShard(t *testing.T, catalogN int) (http.Handler, *engine.Database) {
	t.Helper()
	db, err := engine.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := db.Exec(`CREATE TABLE items (id INT PRIMARY KEY, v TEXT, f FLOAT)`); err != nil {
		t.Fatal(err)
	}
	shield, err := core.New(db, core.Config{
		N: catalogN, Alpha: 1, Beta: 1, Cap: time.Millisecond,
		Clock:                vclock.NewSimulated(time.Date(2004, 8, 1, 0, 0, 0, 0, time.UTC)),
		RegistrationInterval: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(shield)
	if err != nil {
		t.Fatal(err)
	}
	return srv.Handler(), db
}

// serveWire puts h behind a real http.Server on a loopback listener.
func serveWire(t *testing.T, h http.Handler) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// wireReply sends one /query over a fresh connection and returns every
// byte the server wrote back, minus the Date header line.
func wireReply(t *testing.T, addr, body string) []byte {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(30 * time.Second))
	fmt.Fprintf(c, "POST /query HTTP/1.1\r\nHost: wire\r\nContent-Type: application/json\r\nX-Identity: wire\r\nConnection: close\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
	raw, err := io.ReadAll(c)
	if err != nil {
		t.Fatal(err)
	}
	head, rest, ok := strings.Cut(string(raw), "\r\n\r\n")
	if !ok {
		t.Fatalf("no header terminator in %q", raw)
	}
	var kept []string
	for _, line := range strings.Split(head, "\r\n") {
		if !strings.HasPrefix(line, "Date: ") {
			kept = append(kept, line)
		}
	}
	return []byte(strings.Join(kept, "\r\n") + "\r\n\r\n" + rest)
}

func sqlBody(sql string) string {
	b, _ := json.Marshal(server.QueryRequest{SQL: sql})
	return string(b)
}

// TestWireDigest replays fixed requests against a fresh shard and a
// fresh three-shard router and compares the digest of each full reply
// with the one recorded on the parent commit.
func TestWireDigest(t *testing.T) {
	const rows = 1200
	// Loaded below the front door: a JSON request body cannot carry the
	// fixture's invalid UTF-8.
	shard, db := wireShard(t, rows)
	if _, err := db.Exec(wireRows(1, rows, true)); err != nil {
		t.Fatal(err)
	}
	shardAddr := serveWire(t, shard)

	nodes := make([]*cluster.Node, 3)
	for i := range nodes {
		h, _ := wireShard(t, rows)
		nodes[i] = cluster.NewLocalNode(fmt.Sprintf("shard-%d", i), h)
		t.Cleanup(func() { nodes[i].Close() }) // before wireShard's db.Close
	}
	rt, err := cluster.NewRouter(nodes, cluster.Config{
		Partitions: 8, Replication: 2,
		AdmitRate: 1e9, AdmitBurst: 1e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.ExecScript(wireRows(1, 300, false)); err != nil {
		t.Fatal(err)
	}
	routerAddr := serveWire(t, rt.Handler())

	cases := []struct {
		name, addr, body string
		// wantIn is a fragment the reply must contain, so that a fixture
		// drifting into an error reply cannot be recorded as golden.
		wantIn string
	}{
		{"shard/point", shardAddr, sqlBody(`SELECT * FROM items WHERE id = 3`), `"rows":[["3","v3 \u003cb\u003e`},
		{"shard/scan1000", shardAddr, sqlBody(`SELECT * FROM items WHERE id BETWEEN 101 AND 1100`), "Transfer-Encoding: chunked"},
		{"shard/write", shardAddr, sqlBody(`UPDATE items SET v = 'neu' WHERE id = 1200`), `{"affected":1,`},
		{"shard/empty", shardAddr, sqlBody(`SELECT id FROM items WHERE id = 99999`), `{"columns":["id"],"affected":0,`},
		{"shard/pfilter", shardAddr, `{"sql":"SELECT id, v FROM items WHERE id <= 40 LIMIT 7","pfilter":{"count":4,"include":[1,3]}}`, `"rows":[[`},
		{"shard/pfilter-agg", shardAddr, `{"sql":"SELECT COUNT(*), SUM(f), AVG(f), MIN(v), MAX(id) FROM items WHERE id <= 90","pfilter":{"count":4,"include":[0,2]}}`, `"columns":["count(*)","sum(f)"`},
		{"shard/pfilter-limit0", shardAddr, `{"sql":"SELECT COUNT(*) FROM items LIMIT 0","pfilter":{"count":4,"include":[0]}}`, `{"columns":["count(*)"],"affected":0,"delay_millis":0}`},
		{"shard/error", shardAddr, sqlBody(`SELECT * FROM nope`), "HTTP/1.1 400"},
		{"router/point", routerAddr, sqlBody(`SELECT * FROM items WHERE id = 13`), `"rows":[["13",`},
		{"router/merged-order", routerAddr, sqlBody(`SELECT * FROM items WHERE id <= 250 ORDER BY f DESC`), "Transfer-Encoding: chunked"},
		{"router/merged-strip", routerAddr, sqlBody(`SELECT v FROM items WHERE id <= 30 ORDER BY id`), `{"columns":["v"],"rows":[["v1"],`},
		{"router/merged-agg", routerAddr, sqlBody(`SELECT COUNT(*), SUM(f), AVG(id), MIN(v), MAX(f) FROM items`), `"rows":[["300",`},
		{"router/merged-limit", routerAddr, sqlBody(`SELECT id FROM items WHERE id >= 100 LIMIT 0`), `"affected":0`},
		{"router/scatter-write", routerAddr, sqlBody(`UPDATE items SET v = 'w' WHERE id <= 20`), `{"affected":20,`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := wireReply(t, tc.addr, tc.body)
			if !strings.Contains(string(out), tc.wantIn) {
				t.Fatalf("reply lacks %q:\n%.600s", tc.wantIn, out)
			}
			sum := sha256.Sum256(out)
			got := hex.EncodeToString(sum[:])
			if os.Getenv("WIRE_DIGEST_PRINT") != "" {
				fmt.Printf("\t%q: %q,\n", tc.name, got)
				return
			}
			if want := goldenWire[tc.name]; got != want {
				t.Fatalf("reply digest %s, recorded %s: the wire changed\n%.600s", got, want, out)
			}
		})
	}
}
