package delay

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/vclock"
)

// idPolicy charges each tuple its id in tenths of a second, so a fuzz
// input chooses every charge's delay.
type idPolicy struct{}

func (idPolicy) DelayBatch(ids []uint64) time.Duration {
	var d time.Duration
	for _, id := range ids {
		d += time.Duration(id) * 100 * time.Millisecond
	}
	return d
}

// FuzzPrincipalClock: the bytes decode, two per charge, into one
// principal's concurrent charges on a blocking simulated clock — each
// byte pair a delay of 0–1.5 s and the clock step (0 = before it starts,
// 1–7, or never) at which its caller hangs up. After every charge has
// returned, one more charge of nothing is made. The properties:
//   - no served charge returns before its start plus its delay;
//   - a cancelled charge's delay stays on the clock: the closing charge
//     returns no earlier than the sum of every delay charged;
//   - so the principal's wall time is at least its bill.
func FuzzPrincipalClock(f *testing.F) {
	f.Add([]byte{5, 0xff, 3, 0xff})
	f.Add([]byte{15, 1, 15, 2, 1, 0xff})
	f.Add([]byte{7, 0, 7, 0, 0, 0xff})
	f.Add([]byte{1, 3, 2, 5, 3, 7, 4, 9, 0, 2})
	f.Fuzz(func(t *testing.T, in []byte) {
		type charge struct {
			d      time.Duration
			cancel int // clock step that cancels it; -1 never
		}
		var charges []charge
		for i := 0; i+1 < len(in) && len(charges) < 32; i += 2 {
			c := charge{d: time.Duration(in[i]%16) * 100 * time.Millisecond, cancel: -1}
			if in[i+1]&1 == 0 {
				c.cancel = int(in[i+1]>>1) % 8
			}
			charges = append(charges, c)
		}
		clk := vclock.NewSimulated(time.Unix(0, 0))
		clk.SetBlocking(true)
		g, err := NewGate(idPolicy{}, clk, nil)
		if err != nil {
			t.Fatal(err)
		}
		start := clk.Now()
		p := g.Admit("p")
		var bill time.Duration
		type result struct {
			i    int
			err  error
			left time.Time
		}
		results := make(chan result, len(charges))
		cancels := make([]context.CancelFunc, len(charges))
		var wg sync.WaitGroup
		for i, c := range charges {
			bill += c.d
			ctx, cancel := context.WithCancel(context.Background())
			cancels[i] = cancel
			if c.cancel == 0 {
				cancel()
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, err := g.ChargeCtxScaled(ctx, p, 1, uint64(c.d/(100*time.Millisecond)))
				results <- result{i, err, clk.Now()}
			}()
		}
		drive(t, clk, &wg, len(charges), results, func(step int) {
			for i, c := range charges {
				if c.cancel == step {
					cancels[i]()
				}
			}
		})
		close(results)
		for r := range results {
			if r.err == nil && r.left.Before(start.Add(charges[r.i].d)) {
				t.Fatalf("charge %d of %v returned at +%v", r.i, charges[r.i].d, r.left.Sub(start))
			}
			if r.err != nil && !errors.Is(r.err, context.Canceled) {
				t.Fatal(r.err)
			}
		}
		for _, cancel := range cancels {
			cancel()
		}
		// The closing charge of nothing waits out every earlier charge,
		// cancelled or not.
		var closing sync.WaitGroup
		closing.Add(1)
		left := make(chan result, 1)
		go func() {
			defer closing.Done()
			_, err := g.ChargeCtxScaled(context.Background(), p, 1)
			left <- result{err: err, left: clk.Now()}
		}()
		drive(t, clk, &closing, 1, left, func(int) {})
		if r := <-left; r.left.Sub(start) < bill {
			t.Fatalf("wall time %v under the %v billed (%d charges)", r.left.Sub(start), bill, len(charges))
		}
	})
}

// drive moves clk on 100 ms at a time until wg's n sleepers have all
// returned, calling step with each step's number first. It moves only
// once every sleeper still running has parked, so no sleeper's start is
// skipped past.
func drive[T any](t *testing.T, clk *vclock.Simulated, wg *sync.WaitGroup, n int, returned chan T, step func(int)) {
	t.Helper()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	deadline := time.Now().Add(5 * time.Second)
	for s := 1; ; {
		select {
		case <-done:
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("sleepers stuck: %d parked, %d of %d returned", clk.Waiters(), len(returned), n)
		}
		if clk.Waiters()+len(returned) < n {
			time.Sleep(10 * time.Microsecond)
			continue
		}
		step(s)
		s++
		clk.Advance(100 * time.Millisecond)
	}
}

// TestClockTableEvictsOnlyIdle: a full clock table makes room for a new
// principal only by dropping a clock that holds no slot and owes no
// time; while every clock is busy or in debt, the newcomer is refused.
func TestClockTableEvictsOnlyIdle(t *testing.T) {
	clk := vclock.NewSimulated(time.Unix(0, 0))
	g, err := NewGate(idPolicy{}, clk, nil)
	if err != nil {
		t.Fatal(err)
	}
	var p0 *PrincipalClock
	for i := range principalClocks {
		c := g.Admit("p" + strconv.Itoa(i))
		if c == nil {
			t.Fatalf("principal %d refused below the table bound", i)
		}
		if i == 0 {
			p0 = c
		}
	}
	if g.Admit("newcomer") != nil {
		t.Fatal("a full table of admitted clocks took a newcomer")
	}
	// p0 releases its slot but owes 1 s: still not evictable.
	g.schedule(p0, time.Second)
	p0.Release()
	if g.Admit("newcomer") != nil {
		t.Fatal("a clock in debt was evicted")
	}
	// Once its debt is paid, p0's clock is idle and makes room.
	clk.Advance(time.Second)
	if g.Admit("newcomer") == nil {
		t.Fatal("an idle clock was not evicted for a newcomer")
	}
	if g.nclocks != principalClocks {
		t.Fatalf("clock table holds %d, bound %d", g.nclocks, principalClocks)
	}
}

// TestPrincipalWaitCap: a principal holds at most PrincipalWaitCap slots.
func TestPrincipalWaitCap(t *testing.T) {
	g, err := NewGate(idPolicy{}, vclock.NewSimulated(time.Unix(0, 0)), nil)
	if err != nil {
		t.Fatal(err)
	}
	var p *PrincipalClock
	for range PrincipalWaitCap {
		if p = g.Admit("p"); p == nil {
			t.Fatal("refused under the cap")
		}
	}
	if g.Admit("p") != nil {
		t.Fatal("admitted past the cap")
	}
	p.Release()
	if g.Admit("p") == nil {
		t.Fatal("a released slot was not reusable")
	}
}
