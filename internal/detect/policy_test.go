package detect

import "testing"

func defaultPolicy() EscalationPolicy {
	p := EscalationPolicy{}
	if err := p.fill(); err != nil {
		panic(err)
	}
	return p
}

func TestMultiplierShape(t *testing.T) {
	p := defaultPolicy() // grace 0.08, cap 64, ramp 0.10
	if m := p.Multiplier(0); m != 1 {
		t.Errorf("coverage 0: %v, want 1", m)
	}
	if m := p.Multiplier(p.Grace); m != 1 {
		t.Errorf("coverage at grace: %v, want exactly 1", m)
	}
	mid := p.Multiplier(p.Grace + rampWidth/2)
	if mid <= 1 || mid >= p.Cap {
		t.Errorf("mid-ramp: %v, want strictly between 1 and cap", mid)
	}
	if m := p.Multiplier(p.Grace + rampWidth); m != p.Cap {
		t.Errorf("end of ramp: %v, want cap %v", m, p.Cap)
	}
	if m := p.Multiplier(1); m != p.Cap {
		t.Errorf("full coverage: %v, want cap %v", m, p.Cap)
	}
}

func TestMultiplierMonotone(t *testing.T) {
	p := defaultPolicy()
	prev := 0.0
	for c := 0.0; c <= 1.0; c += 0.005 {
		m := p.Multiplier(c)
		if m < prev {
			t.Fatalf("multiplier not monotone at coverage %.3f: %v < %v", c, m, prev)
		}
		prev = m
	}
}

func TestMultiplierCapDisabled(t *testing.T) {
	p := EscalationPolicy{Grace: 0.1, Cap: 1}
	if m := p.Multiplier(0.9); m != 1 {
		t.Errorf("cap 1 must disable escalation: %v", m)
	}
}

func TestReleaseHysteresis(t *testing.T) {
	p := defaultPolicy() // hysteresis 0.10
	// Instant escalation: raw above applied snaps up.
	if got := p.release(1, 64); got != 64 {
		t.Errorf("escalate: %v, want 64", got)
	}
	// Geometric release: 64 decays by 10% per sweep toward raw 1.
	got := p.release(64, 1)
	if got != 64*0.9 {
		t.Errorf("one release sweep: %v, want %v", got, 64*0.9)
	}
	// Never undershoots raw.
	if got := p.release(1.05, 1.02); got != 1.02 {
		t.Errorf("release floor: %v, want 1.02", got)
	}
	// Repeated sweeps converge to raw.
	m := 64.0
	for i := 0; i < 100; i++ {
		m = p.release(m, 1)
	}
	if m != 1 {
		t.Errorf("after 100 sweeps: %v, want 1", m)
	}
}
