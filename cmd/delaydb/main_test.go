package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"go/parser"
	"go/token"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/server"
)

// TestRunFlagAndConfigErrors: bad inputs surface as errors, not exits.
func TestRunFlagAndConfigErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-policy", "nonsense", "-dir", t.TempDir()}, &out, nil); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if err := run([]string{"-badflag"}, &out, nil); err == nil {
		t.Fatal("unknown flag accepted")
	}
	for _, removed := range []string{"-pricecache=1", "-walgroup=false", "-plancache=1", "-scanworkers=2", "-walgroupwindow=0", "-admit-rate=1", "-admit-burst=1"} {
		if err := run([]string{removed, "-dir", t.TempDir()}, &out, nil); err == nil {
			t.Fatalf("the removed %s flag accepted", removed)
		}
	}
	if err := run([]string{"-dir", t.TempDir(), "-init", "/does/not/exist"}, &out, nil); err == nil {
		t.Fatal("missing init script accepted")
	}
}

// TestRunRejectsBadDetectSettings: a detector setting outside its range
// stops delaydb at startup instead of serving with it.
func TestRunRejectsBadDetectSettings(t *testing.T) {
	for _, bad := range [][]string{
		{"-detect-grace", "NaN"},
		{"-detect-cap", "0.5"},
		{"-detect-jaccard", "1.5"},
	} {
		ready := make(chan listening, 1)
		done := make(chan error, 1)
		args := append([]string{"-dir", t.TempDir(), "-addr", "127.0.0.1:0", "-admin-addr", "127.0.0.1:0", "-drain", "1s", "-detect"}, bad...)
		go func() { done <- run(args, io.Discard, ready) }()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "detect") {
				t.Errorf("%v: run = %v, want the detector's error", bad, err)
			}
		case <-ready:
			// Left serving until the test binary exits.
			t.Errorf("%v accepted: delaydb started serving", bad)
		}
	}
}

// helpText is what delaydb -h prints below its "Usage of delaydb:" line:
// every flag run registers, with its default and help.
func helpText(t *testing.T) string {
	t.Helper()
	// The flag set prints its usage to os.Stderr.
	f, err := os.CreateTemp(t.TempDir(), "help")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stderr := os.Stderr
	os.Stderr = f
	err = run([]string{"-h"}, io.Discard, nil)
	os.Stderr = stderr
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("run -h = %v, want flag.ErrHelp", err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	_, body, ok := strings.Cut(string(out), "Usage of delaydb:\n")
	if !ok {
		t.Fatalf("delaydb -h printed no usage header:\n%s", out)
	}
	return body
}

// flagNames collects the -name tokens in text: every "-x" that starts the
// text or follows a space or "[".
func flagNames(text string) map[string]bool {
	names := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?:^|[\s\[])-([a-z][a-z0-9-]*)`).FindAllStringSubmatch(text, -1) {
		names[m[1]] = true
	}
	return names
}

// sameNames reports the flags one list has and the other lacks.
func sameNames(t *testing.T, what string, got, want map[string]bool) {
	t.Helper()
	for name := range got {
		if !want[name] {
			t.Errorf("%s names -%s, which delaydb does not register", what, name)
		}
	}
	for name := range want {
		if !got[name] {
			t.Errorf("%s leaves out -%s", what, name)
		}
	}
}

// TestFlagReferenceMatchesHelp: README's flag reference is delaydb -h
// (flags, defaults and help), and the usage block of the package comment
// names exactly the flags run registers.
func TestFlagReferenceMatchesHelp(t *testing.T) {
	help := helpText(t)
	registered := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^  -([a-z][a-z0-9-]*)`).FindAllStringSubmatch(help, -1) {
		registered[m[1]] = true
	}
	if len(registered) == 0 {
		t.Fatalf("no flags in delaydb -h:\n%s", help)
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, ref, ok := strings.Cut(string(readme), "## `delaydb` flags\n")
	if ok {
		_, ref, ok = strings.Cut(ref, "```text\n")
	}
	if ok {
		ref, _, ok = strings.Cut(ref, "```")
	}
	if !ok {
		t.Fatal("README has no ```text block under \"## `delaydb` flags\"")
	}
	sameNames(t, "README's flag reference", flagNames(ref), registered)
	if trimLines(ref) != trimLines(help) {
		t.Errorf("README's flag reference differs from delaydb -h; replace it with the output of go run ./cmd/delaydb -h")
	}

	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.PackageClauseOnly|parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var usage strings.Builder
	for _, line := range strings.Split(f.Doc.Text(), "\n") {
		if strings.HasPrefix(line, "\t") { // the usage blocks are the comment's code blocks
			usage.WriteString(line + "\n")
		}
	}
	sameNames(t, "main.go's usage block", flagNames(usage.String()), registered)
}

// TestDocsNameOnlyLiveFlags: every flag a code span in the prose of
// DESIGN.md or README.md names is one a command registers: delaydb (its
// -h), another command of the repo (its source), or go test (-race,
// -cpu).
func TestDocsNameOnlyLiveFlags(t *testing.T) {
	live := map[string]bool{"race": true, "cpu": true}
	for _, m := range regexp.MustCompile(`(?m)^  -([a-z][a-z0-9-]*)`).FindAllStringSubmatch(helpText(t), -1) {
		live[m[1]] = true
	}
	others, err := filepath.Glob("../*/main.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range append(others, "../../bench/main.go") {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range regexp.MustCompile(`\b(?:fs|flag)\.[A-Z]\w*\("([a-z][a-z0-9-]*)"`).FindAllSubmatch(src, -1) {
			live[string(m[1])] = true
		}
	}
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		text, err := os.ReadFile("../../" + doc)
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		for i, line := range strings.Split(string(text), "\n") {
			if strings.HasPrefix(line, "```") {
				fenced = !fenced
			}
			if fenced {
				continue
			}
			spans := strings.Split(line, "`")
			for j := 1; j < len(spans); j += 2 {
				if !strings.HasPrefix(spans[j], "-") {
					continue
				}
				for name := range flagNames(spans[j]) {
					if !live[name] {
						t.Errorf("%s:%d names -%s, which no command registers", doc, i+1, name)
					}
				}
			}
		}
	}
}

// trimLines is s with every line trimmed of surrounding blanks, so a
// reference whose tabs an editor expanded still matches.
func trimLines(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	for i, l := range lines {
		lines[i] = strings.TrimSpace(l)
	}
	return strings.Join(lines, "\n")
}

// TestFaultEnvRejected: a malformed DELAYDB_FAULTS spec is a startup
// error with the offending clause in the message.
func TestFaultEnvRejected(t *testing.T) {
	t.Setenv("DELAYDB_FAULTS", "pager.read=explode")
	var out bytes.Buffer
	err := run([]string{"-dir", t.TempDir()}, &out, nil)
	if err == nil || !strings.Contains(err.Error(), "DELAYDB_FAULTS") {
		t.Fatalf("bad fault spec: err = %v", err)
	}
	t.Setenv("DELAYDB_FAULTS", "")
	t.Setenv("DELAYDB_FAULT_SEED", "not-a-number")
	t.Setenv("DELAYDB_FAULTS", "pager.read=err@p0.5")
	err = run([]string{"-dir", t.TempDir()}, &out, nil)
	if err == nil || !strings.Contains(err.Error(), "DELAYDB_FAULT_SEED") {
		t.Fatalf("bad fault seed: err = %v", err)
	}
}

// TestClusterModeServesAndDrains boots -cluster 2 as a real process
// would: writes must replicate to both shard directories, reads must
// flow through the router, /healthz must list both peers, the
// anti-entropy loop must complete rounds, and SIGTERM must drain and
// close every shard cleanly.
func TestClusterModeServesAndDrains(t *testing.T) {
	dir := t.TempDir()
	schema := dir + "/init.sql"
	if err := os.WriteFile(schema,
		[]byte("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)"), 0o644); err != nil {
		t.Fatal(err)
	}

	ready := make(chan listening, 1)
	done := make(chan error, 1)
	var out bytes.Buffer
	go func() {
		done <- run([]string{
			"-dir", dir,
			"-addr", "127.0.0.1:0",
			"-admin-addr", "127.0.0.1:0",
			"-init", schema,
			"-cluster", "2",
			"-writers", "cluster-client",
			"-rate", "0.001", "-burst", "2",
			"-detect",
			"-n", "1000",
			"-cap", "1ms",
			"-antientropy", "50ms",
			"-drain", "10s",
		}, &out, ready)
	}()
	var addrs listening
	select {
	case addrs = <-ready:
	case err := <-done:
		t.Fatalf("cluster exited before ready: %v\n%s", err, out.String())
	case <-time.After(10 * time.Second):
		t.Fatal("cluster never became ready")
	}

	addr := addrs.public
	c := server.NewClient("http://"+addr, "cluster-client")
	if _, err := c.Query("INSERT INTO t VALUES (1, 'one')"); err != nil {
		t.Fatalf("write through router: %v", err)
	}
	res, err := c.Query("SELECT * FROM t WHERE id = 1")
	if err != nil {
		t.Fatalf("read through router: %v", err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("read through router: %d rows, want 1", len(res.Rows))
	}
	// -rate and -burst meter at the router: a third statement is over
	// the burst of 2.
	if _, err := c.Query("SELECT * FROM t WHERE id = 1"); err == nil || !strings.Contains(err.Error(), "HTTP 429") {
		t.Fatalf("third statement at -burst 2: err = %v, want HTTP 429", err)
	}

	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health cluster.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || len(health.Peers) != 2 {
		t.Fatalf("healthz = %+v, want ok with 2 peers", health)
	}

	// Give the 50ms anti-entropy ticker time to complete rounds.
	time.Sleep(200 * time.Millisecond)
	resp, err = http.Get("http://" + addrs.admin + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics map[string]float64
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if metrics["cluster_routed_total"] < 2 {
		t.Fatalf("cluster_routed_total = %v, want >= 2", metrics["cluster_routed_total"])
	}
	if v := metrics["cluster_admission_rejected_total"]; v != 1 {
		t.Fatalf("cluster_admission_rejected_total = %v, want 1", v)
	}
	if metrics["cluster_antientropy_rounds_total"] < 1 {
		t.Fatalf("cluster_antientropy_rounds_total = %v, want >= 1",
			metrics["cluster_antientropy_rounds_total"])
	}
	// The shards are reached over the shard transport, whose books
	// /metrics reports.
	if v := metrics["cluster_peer_dials_total"]; v < 1 {
		t.Fatalf("cluster_peer_dials_total = %v, want >= 1", v)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	var runErr error
	select {
	case runErr = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("run() did not return after SIGTERM")
	}
	if runErr != nil {
		t.Fatalf("run() after SIGTERM = %v\n%s", runErr, out.String())
	}
	if !strings.Contains(out.String(), "drained and closed cleanly") {
		t.Fatalf("missing drain banner in output:\n%s", out.String())
	}
	// -cluster without -partitions is full replication, stated as the
	// map it is.
	if !strings.Contains(out.String(), "64 partitions x 2 replicas") {
		t.Fatalf("startup banner does not state the R=N map:\n%s", out.String())
	}
	// Each shard listened on a loopback port the banner names, and the
	// drain closed it.
	for i := 0; i < 2; i++ {
		prefix := fmt.Sprintf("delaydb: shard-%d on ", i)
		_, after, ok := strings.Cut(out.String(), prefix)
		if !ok {
			t.Fatalf("startup banner names no address for shard-%d:\n%s", i, out.String())
		}
		shardAddr, _, _ := strings.Cut(after, "\n")
		if !strings.HasPrefix(shardAddr, "127.0.0.1:") {
			t.Fatalf("shard-%d listened on %q, want a 127.0.0.1 port", i, shardAddr)
		}
		if nc, err := net.DialTimeout("tcp", shardAddr, time.Second); err == nil {
			nc.Close()
			t.Fatalf("shard-%d's %s still accepts connections after the drain", i, shardAddr)
		}
	}

	// The write must have fanned out: each shard directory holds the row.
	for i := 0; i < 2; i++ {
		db, err := engine.Open(filepath.Join(dir, fmt.Sprintf("shard-%d", i)))
		if err != nil {
			t.Fatalf("reopening shard %d: %v", i, err)
		}
		res, err := db.Exec("SELECT * FROM t WHERE id = 1")
		db.Close()
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("shard %d has %d rows for id=1, want 1 (write did not replicate)", i, len(res.Rows))
		}
	}
}

// TestClusterFlagErrors: contradictory or incomplete cluster flags are
// startup errors.
func TestClusterFlagErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-dir", t.TempDir(), "-cluster", "2", "-router"}, &out, nil); err == nil {
		t.Fatal("-cluster with -router accepted")
	}
	if err := run([]string{"-router"}, &out, nil); err == nil {
		t.Fatal("-router without -peers accepted")
	}
	if err := run([]string{"-router", "-peers", " , "}, &out, nil); err == nil {
		t.Fatal("empty -peers list accepted")
	}
	// A peer the shard transport could never dial is refused now, not by
	// the first query that fails against it.
	for _, peers := range []string{
		"10.0.0.1:8080",                       // no scheme
		"http://10.0.0.1:8080,localhost:8081", // "localhost" reads as a scheme
		"ftp://10.0.0.1:8080",
		"http://",
	} {
		if err := run([]string{"-router", "-peers", peers}, &out, nil); err == nil || !strings.Contains(err.Error(), "-peers") {
			t.Errorf("-peers %q: err = %v, want a -peers flag error", peers, err)
		}
	}
}

// TestSigtermDrainsAndRecoversConsistent is the kill test: a server
// under a mixed read/write workload receives SIGTERM mid-flight, run()
// must return nil (drained, engine closed), and a reopen of the data
// directory must contain every acknowledged insert.
func TestSigtermDrainsAndRecoversConsistent(t *testing.T) {
	dir := t.TempDir()
	schema := dir + "/init.sql"
	if err := os.WriteFile(schema,
		[]byte("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)"), 0o644); err != nil {
		t.Fatal(err)
	}

	ready := make(chan listening, 1)
	done := make(chan error, 1)
	var out bytes.Buffer
	go func() {
		done <- run([]string{
			"-dir", dir,
			"-addr", "127.0.0.1:0",
			"-admin-addr", "127.0.0.1:0",
			"-init", schema,
			"-wal",
			"-writers", "writer",
			"-n", "1000",
			"-cap", "1ms",
			"-drain", "10s",
		}, &out, ready)
	}()
	var addr string
	select {
	case l := <-ready:
		addr = l.public
	case err := <-done:
		t.Fatalf("server exited before ready: %v\n%s", err, out.String())
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}

	// Mixed workload: writers insert sequential keys and record every
	// acknowledged one; readers poke at the same table.
	var (
		acked   sync.Map // id -> true, only after a 200
		stopGen atomic.Bool
		wg      sync.WaitGroup
		nextID  atomic.Int64
	)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := server.NewClient("http://"+addr, "writer")
			for !stopGen.Load() {
				id := nextID.Add(1)
				if _, err := c.Query(fmt.Sprintf(
					"INSERT INTO t VALUES (%d, 'v-%d')", id, id)); err == nil {
					acked.Store(id, true)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := server.NewClient("http://"+addr, "reader")
		for !stopGen.Load() {
			c.Query("SELECT * FROM t WHERE id = 1")
		}
	}()

	// Let the workload run, then deliver a real SIGTERM to ourselves.
	time.Sleep(300 * time.Millisecond)
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	var runErr error
	select {
	case runErr = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("run() did not return after SIGTERM")
	}
	stopGen.Store(true)
	wg.Wait()
	if runErr != nil {
		t.Fatalf("run() after SIGTERM = %v\n%s", runErr, out.String())
	}
	if !strings.Contains(out.String(), "drained and closed cleanly") {
		t.Fatalf("missing drain banner in output:\n%s", out.String())
	}

	// Reopen the directory directly: every acknowledged insert must be
	// present (drain let it commit; close flushed it).
	db, err := engine.Open(dir, engine.WithWAL(false))
	if err != nil {
		t.Fatalf("reopening after drain: %v", err)
	}
	defer db.Close()
	res, err := db.Exec("SELECT * FROM t")
	if err != nil {
		t.Fatal(err)
	}
	have := make(map[int64]bool, len(res.Rows))
	for _, row := range res.Rows {
		have[row[0].Int] = true
	}
	ackedCount := 0
	acked.Range(func(k, _ any) bool {
		ackedCount++
		if !have[k.(int64)] {
			t.Errorf("acknowledged insert id=%d missing after drain + reopen", k.(int64))
		}
		return true
	})
	if ackedCount == 0 {
		t.Fatal("workload acknowledged zero inserts; test proves nothing")
	}
	t.Logf("kill test: %d acknowledged inserts, %d rows recovered", ackedCount, len(have))
}

// TestPublicListenerServesOnlyTheFrontDoor walks every route a shard and
// the router register, through run(): on -addr only the public ones
// answer, and no /admin/ path, /metrics or /debug/pprof/; on -admin-addr
// every route and pprof answer.
func TestPublicListenerServesOnlyTheFrontDoor(t *testing.T) {
	for _, mode := range []struct {
		name   string
		args   []string
		routes map[string]bool
	}{
		{"single node", nil, server.Routes()},
		{"cluster", []string{"-cluster", "2"}, cluster.RouterRoutes()},
	} {
		t.Run(mode.name, func(t *testing.T) {
			ready := make(chan listening, 1)
			done := make(chan error, 1)
			args := append([]string{"-dir", t.TempDir(), "-addr", "127.0.0.1:0", "-admin-addr", "127.0.0.1:0",
				"-n", "10", "-cap", "1ms", "-drain", "5s"}, mode.args...)
			go func() { done <- run(args, io.Discard, ready) }()
			var l listening
			select {
			case l = <-ready:
			case err := <-done:
				t.Fatalf("run exited before ready: %v", err)
			case <-time.After(10 * time.Second):
				t.Fatal("never became ready")
			}
			defer func() {
				if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
					t.Fatal(err)
				}
				if err := <-done; err != nil {
					t.Errorf("run after SIGTERM: %v", err)
				}
			}()
			answers := func(addr, method, path string) bool {
				req, err := http.NewRequest(method, "http://"+addr+path, strings.NewReader("{}"))
				if err != nil {
					t.Fatal(err)
				}
				req.Header.Set("Content-Type", "application/json")
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				// The mux's own 404 and 405 are plain text; a handler's
				// error (an unknown node is a 404 too) is JSON.
				unrouted := resp.StatusCode == http.StatusNotFound || resp.StatusCode == http.StatusMethodNotAllowed
				return !unrouted || !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain")
			}
			if len(mode.routes) == 0 {
				t.Fatal("no routes registered")
			}
			for pattern, public := range mode.routes {
				method, path, _ := strings.Cut(pattern, " ")
				if public && (strings.HasPrefix(path, "/admin/") || path == "/metrics") {
					t.Errorf("%s is marked public", pattern)
				}
				if got := answers(l.public, method, path); got != public {
					t.Errorf("%s on the public listener: answers %v, want %v", pattern, got, public)
				}
				if !answers(l.admin, method, path) {
					t.Errorf("%s does not answer on the admin listener", pattern)
				}
			}
			if answers(l.public, "GET", "/debug/pprof/") || !answers(l.admin, "GET", "/debug/pprof/") {
				t.Error("pprof must answer on the admin listener only")
			}
		})
	}
}
