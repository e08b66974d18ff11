package chaos

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestParseSpecRoundtrip(t *testing.T) {
	cases := []string{
		"seed=1",
		"seed=42;journal-io:p=0.1",
		"seed=7;journal-io:p=0.25;slow-disk:ms=5;stall:p=0.05,ms=200;crash@recover:n=1;crash@checkpoint:n=3",
	}
	for _, in := range cases {
		spec, err := ParseSpec(in)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", in, err)
		}
		if got := spec.String(); got != in {
			t.Errorf("roundtrip %q -> %q", in, got)
		}
		if _, err := ParseSpec(spec.String()); err != nil {
			t.Errorf("re-parse of %q: %v", spec.String(), err)
		}
	}
}

func TestParseSpecRejects(t *testing.T) {
	cases := []string{
		"seed=abc",
		"journal-io",       // missing p
		"journal-io:p=1.5", // out of range
		"slow-disk:ms=-1",  // negative
		"stall:p=0.5",      // missing ms
		"stall:p=0.5,ms=0", // zero duration with nonzero prob
		"crash:n=1",        // no site
		"crash@site:n=0",   // non-positive count
		"crash@site:n=x",   // bad count
		"tornado:p=0.1",    // unknown clause
		"journal-io:p",     // malformed param
	}
	for _, in := range cases {
		if _, err := ParseSpec(in); err == nil {
			t.Errorf("ParseSpec(%q) accepted malformed input", in)
		}
	}
}

func TestNilInjectorInjectsNothing(t *testing.T) {
	for _, spec := range []*Spec{nil, {Seed: 9}} {
		in, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		if in != nil {
			t.Fatalf("New(%+v) = non-nil injector", spec)
		}
		// Every method must be nil-receiver-safe.
		if err := in.JournalWriteErr("write"); err != nil {
			t.Error(err)
		}
		if d := in.JournalLatency(); d != 0 {
			t.Error(d)
		}
		if d := in.StallDelay(); d != 0 {
			t.Error(d)
		}
		in.Hit("anywhere")
		in.SetCrashFn(func(string) {})
		if c := in.Counts(); c != (Counts{}) {
			t.Errorf("nil injector counted %+v", c)
		}
	}
}

// TestJournalIODeterministic: the same seed yields the same failure
// sequence; failures wrap ErrInjected and are counted.
func TestJournalIODeterministic(t *testing.T) {
	draw := func() []bool {
		in, err := New(&Spec{Seed: 42, JournalIOProb: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 200)
		fails := 0
		for i := range out {
			err := in.JournalWriteErr("write")
			out[i] = err != nil
			if err != nil {
				fails++
				if !errors.Is(err, ErrInjected) {
					t.Fatalf("injected failure not classified: %v", err)
				}
			}
		}
		if fails == 0 || fails == len(out) {
			t.Fatalf("p=0.3 over %d draws produced %d failures", len(out), fails)
		}
		if got := in.Counts().IOErrors; got != int64(fails) {
			t.Fatalf("counted %d IO errors, observed %d", got, fails)
		}
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs across identically seeded injectors", i)
		}
	}
}

func TestCrashPointFiresAtNthHit(t *testing.T) {
	in, err := New(&Spec{Seed: 1, Crashes: []CrashPoint{{Site: "checkpoint", N: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	var fired []string
	in.SetCrashFn(func(site string) { fired = append(fired, site) })
	for i := 0; i < 5; i++ {
		in.Hit("checkpoint")
		in.Hit("elsewhere") // unscheduled site: never fires
	}
	if len(fired) != 1 || fired[0] != "checkpoint" {
		t.Fatalf("crash fired %v, want exactly once at checkpoint", fired)
	}
	if c := in.Counts(); c.CrashHits != 5 {
		t.Errorf("CrashHits = %d, want 5 (elsewhere is unscheduled)", c.CrashHits)
	}
}

func TestCrashPointWithoutFnIsNoop(t *testing.T) {
	in, err := New(&Spec{Seed: 1, Crashes: []CrashPoint{{Site: "boot", N: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	in.Hit("boot") // must not panic with no crash function installed
	if c := in.Counts(); c.CrashHits != 1 {
		t.Errorf("CrashHits = %d", c.CrashHits)
	}
}

func TestLatencyAndStall(t *testing.T) {
	in, err := New(&Spec{Seed: 5, SlowDiskMS: 7, StallProb: 0.5, StallMS: 11})
	if err != nil {
		t.Fatal(err)
	}
	if d := in.JournalLatency(); d != 7*time.Millisecond {
		t.Errorf("JournalLatency = %v", d)
	}
	stalled := 0
	for i := 0; i < 100; i++ {
		switch d := in.StallDelay(); d {
		case 0:
		case 11 * time.Millisecond:
			stalled++
		default:
			t.Fatalf("StallDelay = %v, want 0 or 11ms", d)
		}
	}
	if stalled == 0 || stalled == 100 {
		t.Errorf("p=0.5 stalls over 100 draws = %d", stalled)
	}
	if c := in.Counts(); c.Stalls != int64(stalled) {
		t.Errorf("counted %d stalls, observed %d", c.Stalls, stalled)
	}
}

// TestConcurrentUse exercises the shared-RNG lock under the race
// detector.
func TestConcurrentUse(t *testing.T) {
	in, err := New(&Spec{
		Seed: 3, JournalIOProb: 0.2, StallProb: 0.2, StallMS: 1,
		Crashes: []CrashPoint{{Site: "s", N: 1 << 30}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				_ = in.JournalWriteErr("sync")
				_ = in.StallDelay()
				in.Hit("s")
			}
		}()
	}
	wg.Wait()
	if c := in.Counts(); c.CrashHits != 8*500 {
		t.Errorf("CrashHits = %d, want %d", c.CrashHits, 8*500)
	}
}
