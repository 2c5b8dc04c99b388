package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// keyState is the last acknowledged write of one key, as the verify pass
// must find it. unknown marks a key whose write failed in transit: its
// outcome cannot be predicted, and the failure is already counted.
type keyState struct {
	gen     uint32
	deleted bool
	unknown bool
}

// worker is one connection of the load generator with everything it
// keeps across phases. Keys are owned by one worker, so its model alone
// knows their final values.
type worker struct {
	idx, nconn int
	addr       string
	w          *workload
	seed       int64
	c          *conn
	model      map[int64]keyState
	want       []byte // expected-payload scratch
}

// sample is one validated reply: when it counts from (the send time in a
// closed loop, the due time in an open one, as wall-clock time),
// how long it took, and which class it belongs to.
type sample struct {
	at    int64 // wall clock, UnixNano
	latNs int64
	lagNs int64 // open loop: how late a slept-for request was sent; -1 if it was not slept for
	write bool
	// genCPUNs is the CPU time the worker's own thread spent across the
	// round trip, inside its socket calls: fixed work, so its cost says
	// how fast this machine was at that moment (see closedMetrics).
	genCPUNs int32
}

// phaseResult is what one worker measured in one phase; merge folds the
// workers' results together.
type phaseResult struct {
	attempted, failed int64
	samples           []sample // one per valid reply; verifyPass keeps none
	legitDelayMs      []float64
	began             time.Time // shared by all workers of the phase
	elapsed           time.Duration
	reqBytes, recvB   int64
	errs              []string // first few failures, for the report
}

func (r *phaseResult) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

func (r *phaseResult) merge(o *phaseResult) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.samples = append(r.samples, o.samples...)
	r.legitDelayMs = append(r.legitDelayMs, o.legitDelayMs...)
	r.began = o.began
	if o.elapsed > r.elapsed {
		r.elapsed = o.elapsed
	}
	r.reqBytes += o.reqBytes
	r.recvB += o.recvB
	if len(r.errs) < 5 {
		r.errs = append(r.errs, o.errs...)
	}
}

func newWorkers(w *workload, seed int64, addr string, n int) ([]*worker, error) {
	ws := make([]*worker, n)
	for i := range ws {
		ws[i] = &worker{idx: i, nconn: n, addr: addr, w: w, seed: seed, model: make(map[int64]keyState)}
		if err := ws[i].redial(addr); err != nil {
			closeWorkers(ws[:i])
			return nil, err
		}
	}
	return ws, nil
}

func closeWorkers(ws []*worker) {
	for _, wk := range ws {
		wk.c.close()
	}
}

func (wk *worker) redial(addr string) error {
	if wk.c != nil {
		wk.c.close()
	}
	c, err := dial(addr)
	if err != nil {
		return err
	}
	wk.addr, wk.c = addr, c
	return nil
}

// exec sends one statement and validates the reply. from is the instant
// latency counts from: the send time in a closed loop (zero means "now"),
// the due time in an open one, where lag is how late the send was.
func (wk *worker) exec(st stmt, from time.Time, lag time.Duration, res *phaseResult) {
	c := wk.c
	c.sql = wk.w.appendSQL(c.sql[:0], wk.seed, st)
	req := c.buildQuery(identityName(st.ident), c.sql)
	if from.IsZero() {
		from = time.Now()
	}
	cpu := threadCPUNs()
	status, body, err := c.roundTrip(req)
	lat := time.Since(from)
	cpu = threadCPUNs() - cpu
	res.attempted++
	if err != nil {
		res.fail("%s: transport: %v", c.sql, err)
		wk.noteWrite(st, keyState{unknown: true})
		// The stream is out of step with the server; start a fresh one.
		if derr := wk.redial(wk.addr); derr != nil {
			res.fail("redial: %v", derr)
		}
		return
	}
	rep, verr := wk.validate(st, status, body)
	if verr != nil {
		res.fail("%s: %v", c.sql, verr)
		wk.noteWrite(st, keyState{unknown: true})
		return
	}
	res.samples = append(res.samples, sample{at: from.UnixNano(), latNs: int64(lat), lagNs: int64(lag), write: st.kind.isWrite(), genCPUNs: int32(cpu)})
	if st.kind.isWrite() {
		wk.noteWrite(st, keyState{gen: st.gen, deleted: st.kind == kDelete})
	} else if st.kind == kPoint && int(st.ident) >= wk.w.robots {
		res.legitDelayMs = append(res.legitDelayMs, rep.delayMillis)
	}
}

func (wk *worker) noteWrite(st stmt, ks keyState) {
	if st.kind.isWrite() {
		wk.model[st.key] = ks
	}
}

// validate checks a reply against the statement that asked for it.
func (wk *worker) validate(st stmt, status int, body []byte) (queryReply, error) {
	if status != 200 {
		return queryReply{}, fmt.Errorf("HTTP %d: %s", status, bytes.TrimSpace(body))
	}
	rep, ok := parseQueryReply(body)
	if !ok {
		return rep, fmt.Errorf("unparseable reply (%d bytes)", len(body))
	}
	if !rep.hasDelay {
		return rep, fmt.Errorf("reply carries no delay_millis")
	}
	switch st.kind {
	case kPoint:
		return rep, wk.checkRow(st.key, rep)
	case kRange:
		if rep.rows != int(st.span) || rep.firstID != st.key || !rep.contiguous {
			return rep, fmt.Errorf("range [%d,+%d): got %d rows from id %d (contiguous=%v)", st.key, st.span, rep.rows, rep.firstID, rep.contiguous)
		}
	case kTopN:
		if rep.rows != topNLimit || rep.firstID != st.key || !rep.contiguous {
			return rep, fmt.Errorf("top-%d from %d: got %d rows from id %d (contiguous=%v)", topNLimit, st.key, rep.rows, rep.firstID, rep.contiguous)
		}
	case kCount:
		if rep.rows != 1 || rep.firstID != int64(st.span) {
			return rep, fmt.Errorf("count over %d ids: got %d rows, value %d", st.span, rep.rows, rep.firstID)
		}
	default:
		if rep.affected != 1 {
			return rep, fmt.Errorf("affected %d, want 1", rep.affected)
		}
	}
	return rep, nil
}

// checkRow compares a point read of key with the model: a deleted key
// must be absent, any other key present with its last written payload.
func (wk *worker) checkRow(key int64, rep queryReply) error {
	ks := wk.model[key]
	switch {
	case ks.unknown:
		return nil
	case ks.deleted:
		if rep.rows != 0 {
			return fmt.Errorf("id %d was deleted but is returned", key)
		}
		return nil
	case rep.rows != 1 || rep.firstID != key:
		return fmt.Errorf("id %d: got %d rows, first id %d", key, rep.rows, rep.firstID)
	}
	wk.want = appendPayload(wk.want[:0], wk.seed, key, ks.gen, wk.w.rowBytes)
	if !bytes.Equal(rep.firstV, wk.want) {
		return fmt.Errorf("id %d: value %q, want %q (generation %#x)", key, rep.firstV, wk.want, ks.gen)
	}
	return nil
}

// threadCPUNs is the CPU time the calling OS thread has used so far. The
// workers are locked to their threads, so differences are a worker's own.
func threadCPUNs() int64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0) //nolint:errcheck // cannot fail with a valid clock and pointer
	return ts.Nano()
}

// runWorkers runs fn once per worker, each on its own locked OS thread
// with a 1 ns timer slack (the default 50 µs would be added to every
// open-loop wait), and merges what they measured.
func runWorkers(ws []*worker, fn func(wk *worker, res *phaseResult)) *phaseResult {
	results := make([]*phaseResult, len(ws))
	began := time.Now()
	var wg sync.WaitGroup
	for i, wk := range ws {
		wg.Add(1)
		go func(i int, wk *worker) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			const prSetTimerSlack = 29
			syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0) //nolint:errcheck // a refused slack only shows as a larger loadgen.lag
			res := &phaseResult{began: began}
			sent, recv := wk.c.sent, wk.c.recv
			fn(wk, res)
			res.elapsed = time.Since(began)
			res.reqBytes, res.recvB = wk.c.sent-sent, wk.c.recv-recv
			results[i] = res
		}(i, wk)
	}
	wg.Wait()
	total := &phaseResult{}
	for _, r := range results {
		total.merge(r)
	}
	return total
}

// closedLoop has every connection send its next statement as soon as the
// previous reply lands, for the given time or (ops > 0) statement count.
func closedLoop(ws []*worker, perm []int32, ph phase, d time.Duration, ops int) *phaseResult {
	return runWorkers(ws, func(wk *worker, res *phaseResult) {
		src := newStream(wk.w, wk.seed, ph, wk.idx, wk.nconn, perm)
		if ops > 0 {
			for i := 0; i < ops; i++ {
				wk.exec(src.next(), time.Time{}, -1, res)
			}
			return
		}
		for end := res.began.Add(d); time.Now().Before(end); {
			wk.exec(src.next(), time.Time{}, -1, res)
		}
	})
}

// spinMargin is how long before a due time a worker stops sleeping and
// spins: above the p90 wake-up overshoot of nanosleep on the reference
// box (≈110 µs under load), so nine requests in ten are sent when they
// are due, not when the timer got round to it. Spinning longer would
// take the CPU the server needs.
const spinMargin = 150 * time.Microsecond

func sleepUntil(due time.Time) {
	if d := time.Until(due) - spinMargin; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) //nolint:errcheck // an early wake only lengthens the spin
	}
	for time.Now().Before(due) {
	}
}

// openLoop sends each connection's Poisson arrivals when they are due and
// times every request from its due time, so a stall is charged to every
// request it held up.
func openLoop(ws []*worker, perm []int32, window time.Duration) *phaseResult {
	return runWorkers(ws, func(wk *worker, res *phaseResult) {
		start := res.began
		src := newStream(wk.w, wk.seed, phaseOpen, wk.idx, wk.nconn, perm)
		arr := newArrivals(wk.w, wk.seed, wk.idx, wk.nconn)
		for {
			off := arr.next()
			if off >= int64(window) {
				return
			}
			due := start.Add(time.Duration(off))
			lag := time.Duration(-1)
			if time.Now().Before(due) {
				sleepUntil(due)
				lag = time.Since(due)
			}
			wk.exec(src.next(), due, lag, res)
		}
	})
}

// verifyPass re-reads every key with an acknowledged write and checks it
// against the model. Each read is one attempted operation.
func verifyPass(ws []*worker) *phaseResult {
	return runWorkers(ws, func(wk *worker, res *phaseResult) {
		for key := range wk.model {
			st := stmt{kind: kPoint, key: key}
			c := wk.c
			c.sql = wk.w.appendSQL(c.sql[:0], wk.seed, st)
			status, body, err := c.roundTrip(c.buildQuery("verifier", c.sql))
			res.attempted++
			if err != nil {
				res.fail("verify id %d: transport: %v", key, err)
				if derr := wk.redial(wk.addr); derr != nil {
					res.fail("redial: %v", derr)
					return
				}
				continue
			}
			if status != 200 {
				res.fail("verify id %d: HTTP %d", key, status)
				continue
			}
			rep, ok := parseQueryReply(body)
			if !ok {
				res.fail("verify id %d: unparseable reply", key)
				continue
			}
			if err := wk.checkRow(key, rep); err != nil {
				res.fail("verify: %v", err)
			}
		}
	})
}

// liveIDs lists every tuple id the workers' models say exists: the loaded
// rows plus acknowledged inserts, minus acknowledged deletes.
func liveIDs(w *workload, ws []*worker) []uint64 {
	ids := make([]uint64, 0, w.rows)
	for id := 1; id <= w.rows; id++ {
		ids = append(ids, uint64(id))
	}
	for _, wk := range ws {
		for key, ks := range wk.model {
			if key > int64(w.rows) && !ks.deleted && !ks.unknown {
				ids = append(ids, uint64(key))
			}
		}
	}
	return ids
}
