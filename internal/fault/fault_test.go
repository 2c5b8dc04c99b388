package fault

import (
	"errors"
	"testing"
	"time"
)

func TestDisabledIsInert(t *testing.T) {
	Disable()
	if Enabled() {
		t.Fatal("registry enabled at start")
	}
	if err := Check(PagerRead); err != nil {
		t.Fatalf("disabled Check: %v", err)
	}
	if n, err := CheckWrite(WALAppend, 100); n != 100 || err != nil {
		t.Fatalf("disabled CheckWrite = (%d, %v)", n, err)
	}
}

func TestErrorRuleTriggers(t *testing.T) {
	reg := NewRegistry(1).Add(Rule{Site: PagerRead, Kind: Error, After: 2, Count: 1})
	Enable(reg)
	defer Disable()
	for i := 0; i < 2; i++ {
		if err := Check(PagerRead); err != nil {
			t.Fatalf("hit %d fired early: %v", i, err)
		}
	}
	if err := Check(PagerRead); !errors.Is(err, ErrInjected) {
		t.Fatalf("3rd hit: %v, want ErrInjected", err)
	}
	// Count: 1 — exhausted.
	if err := Check(PagerRead); err != nil {
		t.Fatalf("rule fired past its count: %v", err)
	}
	if reg.Hits(PagerRead) != 4 || reg.Fires(PagerRead) != 1 {
		t.Fatalf("hits/fires = %d/%d, want 4/1", reg.Hits(PagerRead), reg.Fires(PagerRead))
	}
}

func TestEveryTriggersPeriodically(t *testing.T) {
	Enable(NewRegistry(1).Add(Rule{Site: PagerSync, Kind: Error, Every: 3}))
	defer Disable()
	var fired []int
	for i := 0; i < 9; i++ {
		if Check(PagerSync) != nil {
			fired = append(fired, i)
		}
	}
	want := []int{0, 3, 6}
	if len(fired) != len(want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired at %v, want %v", fired, want)
		}
	}
}

func TestTornWrite(t *testing.T) {
	Enable(NewRegistry(1).Add(Rule{Site: WALAppend, Kind: Torn, TornBytes: 13, Count: 1}))
	defer Disable()
	n, err := CheckWrite(WALAppend, 100)
	if n != 13 || !errors.Is(err, ErrInjected) {
		t.Fatalf("CheckWrite = (%d, %v), want (13, ErrInjected)", n, err)
	}
	// TornBytes beyond the write length clamps.
	Enable(NewRegistry(1).Add(Rule{Site: WALAppend, Kind: Torn, TornBytes: 500}))
	if n, _ := CheckWrite(WALAppend, 100); n != 100 {
		t.Fatalf("clamped torn = %d, want 100", n)
	}
}

func TestProbabilisticRuleIsDeterministic(t *testing.T) {
	run := func(seed uint64) []int {
		reg := NewRegistry(seed).Add(Rule{Site: PoolLoad, Kind: Error, P: 0.3})
		Enable(reg)
		defer Disable()
		var fired []int
		for i := 0; i < 200; i++ {
			if Check(PoolLoad) != nil {
				fired = append(fired, i)
			}
		}
		return fired
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("same seed diverged: %d vs %d fires", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at fire %d", i)
		}
	}
	if len(a) < 30 || len(a) > 90 {
		t.Fatalf("p=0.3 fired %d/200 times; trigger badly biased", len(a))
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical firing sequences")
	}
}

func TestCrashRuleInvokesHandler(t *testing.T) {
	var crashed Site = 255
	SetCrashHandler(func(s Site) { crashed = s })
	defer SetCrashHandler(nil)
	Enable(NewRegistry(1).Add(Rule{Site: WALAppend, Kind: Crash}))
	defer Disable()
	Check(WALAppend)
	if crashed != WALAppend {
		t.Fatalf("crash handler got site %v", crashed)
	}
}

func TestCrashDefaultPanics(t *testing.T) {
	Enable(NewRegistry(1).Add(Rule{Site: PagerWrite, Kind: Crash}))
	defer Disable()
	defer func() {
		r := recover()
		cp, ok := r.(*CrashPanic)
		if !ok || cp.Site != PagerWrite {
			t.Fatalf("recovered %v, want *CrashPanic at pager.write", r)
		}
	}()
	Check(PagerWrite)
	t.Fatal("no panic")
}

func TestLatencyRuleSleepsAndProceeds(t *testing.T) {
	Enable(NewRegistry(1).Add(Rule{Site: PagerRead, Kind: Latency, Latency: 20 * time.Millisecond}))
	defer Disable()
	start := time.Now()
	if err := Check(PagerRead); err != nil {
		t.Fatalf("latency rule returned error: %v", err)
	}
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("latency rule slept only %v", d)
	}
}

func TestParse(t *testing.T) {
	reg, err := Parse("pager.read=err@p0.5; wal.append=torn:13@after5,count1; pager.sync=latency:2ms@every10; pool.load=crash", 7)
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		site Site
		want Rule
	}{
		{PagerRead, Rule{Site: PagerRead, Kind: Error, P: 0.5}},
		{WALAppend, Rule{Site: WALAppend, Kind: Torn, TornBytes: 13, After: 5, Count: 1}},
		{PagerSync, Rule{Site: PagerSync, Kind: Latency, Latency: 2 * time.Millisecond, Every: 10}},
		{PoolLoad, Rule{Site: PoolLoad, Kind: Crash}},
	}
	for _, c := range checks {
		rules := reg.rules[c.site]
		if len(rules) != 1 {
			t.Fatalf("site %v has %d rules", c.site, len(rules))
		}
		if rules[0].Rule != c.want {
			t.Fatalf("site %v rule = %+v, want %+v", c.site, rules[0].Rule, c.want)
		}
	}
}

func TestParseRejects(t *testing.T) {
	bad := []string{
		"nonsense",
		"bogus.site=err",
		"pager.read=explode",
		"pager.read=latency",    // missing duration
		"pager.read=torn",       // missing bytes
		"pager.read=torn:-1",    // negative bytes
		"pager.read=err:arg",    // err takes no argument
		"pager.read=err@p2",     // p out of range
		"pager.read=err@zzz",    // unknown modifier
		"pager.read=err@every0", // every needs n >= 1
	}
	for _, spec := range bad {
		if _, err := Parse(spec, 1); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
}

func TestSiteRoundTrip(t *testing.T) {
	for _, s := range Sites() {
		got, err := ParseSite(s.String())
		if err != nil || got != s {
			t.Fatalf("round trip of %v: %v, %v", s, got, err)
		}
	}
	if _, err := ParseSite("nope"); err == nil {
		t.Fatal("ParseSite accepted garbage")
	}
}

// BenchmarkCheckDisabled pins the disabled-path cost: one atomic load.
func BenchmarkCheckDisabled(b *testing.B) {
	Disable()
	for i := 0; i < b.N; i++ {
		if err := Check(PagerRead); err != nil {
			b.Fatal(err)
		}
	}
}
