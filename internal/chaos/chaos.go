// Package chaos is the serving layer's deterministic fault injector —
// the counterpart of internal/fault one level up the stack. Where
// fault models the accelerator's own adversity (bad banks, dropped DMA
// transfers), chaos models the adversity of the machine the serving
// process runs on: journal writes and fsyncs that fail, disks that go
// slow, workers that stall, and the process dying outright at a named
// crash point.
//
// Everything is driven by a Spec parsed from the same compact
// semicolon grammar as the -faults flag (see ParseSpec), and all
// randomness comes from the spec's seed, so a chaotic run is exactly
// reproducible — the property the kill-and-restart tests lean on.
//
// The injector never acts on its own: the journal pulls error and
// latency decisions through its Options hooks, the serve engine asks
// for stall delays, and crash points fire only where the code under
// test names them. A nil *Injector is valid everywhere and injects
// nothing, so production call sites need no guards.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ErrInjected is the root of every synthetic I/O failure, so callers
// (and tests) can tell injected faults from real ones with errors.Is.
var ErrInjected = errors.New("chaos: injected fault")

// CrashPoint schedules a process crash at the Nth execution of a named
// site (1-based): "crash@checkpoint:n=3" fires the third time the code
// under test reaches Hit("checkpoint").
type CrashPoint struct {
	Site string `json:"site"`
	N    int    `json:"n"`
}

// Spec is a complete chaos plan.
type Spec struct {
	// Seed drives every probability draw. Same spec, same chaos.
	Seed int64 `json:"seed"`
	// JournalIOProb is the probability that any single journal write or
	// fsync fails with ErrInjected, in [0, 1).
	JournalIOProb float64 `json:"journal_io_prob,omitempty"`
	// SlowDiskMS adds a fixed latency to every journal append,
	// modeling a saturated or degraded disk.
	SlowDiskMS int `json:"slow_disk_ms,omitempty"`
	// StallProb is the probability that a worker pauses for StallMS
	// before starting a job, in [0, 1).
	StallProb float64 `json:"stall_prob,omitempty"`
	// StallMS is the stall duration.
	StallMS int `json:"stall_ms,omitempty"`
	// Crashes are the scheduled crash points.
	Crashes []CrashPoint `json:"crashes,omitempty"`
}

// Validate checks the plan before the serving layer accepts it.
func (s *Spec) Validate() error {
	if s == nil {
		return nil
	}
	// Written as !(in range) so that NaN is refused too.
	if !(s.JournalIOProb >= 0 && s.JournalIOProb < 1) {
		return fmt.Errorf("chaos: journal-io probability %g outside [0, 1)", s.JournalIOProb)
	}
	if !(s.StallProb >= 0 && s.StallProb < 1) {
		return fmt.Errorf("chaos: stall probability %g outside [0, 1)", s.StallProb)
	}
	if s.SlowDiskMS < 0 {
		return fmt.Errorf("chaos: negative slow-disk latency %d", s.SlowDiskMS)
	}
	if s.StallMS < 0 {
		return fmt.Errorf("chaos: negative stall duration %d", s.StallMS)
	}
	if s.StallProb > 0 && s.StallMS == 0 {
		return fmt.Errorf("chaos: stall probability %g with zero duration", s.StallProb)
	}
	for i, c := range s.Crashes {
		if c.Site == "" {
			return fmt.Errorf("chaos: crash point %d has no site", i)
		}
		if c.N <= 0 {
			return fmt.Errorf("chaos: crash point %d (%s) has non-positive count %d", i, c.Site, c.N)
		}
	}
	return nil
}

// Empty reports whether the spec injects nothing.
func (s *Spec) Empty() bool {
	return s == nil || (s.JournalIOProb == 0 && s.SlowDiskMS == 0 &&
		s.StallProb == 0 && len(s.Crashes) == 0)
}

// String renders the spec in the grammar ParseSpec reads, so a spec
// round-trips through the CLI flag.
func (s *Spec) String() string {
	if s == nil {
		return ""
	}
	parts := []string{fmt.Sprintf("seed=%d", s.Seed)}
	if s.JournalIOProb > 0 {
		parts = append(parts, fmt.Sprintf("journal-io:p=%g", s.JournalIOProb))
	}
	if s.SlowDiskMS > 0 {
		parts = append(parts, fmt.Sprintf("slow-disk:ms=%d", s.SlowDiskMS))
	}
	if s.StallProb > 0 {
		parts = append(parts, fmt.Sprintf("stall:p=%g,ms=%d", s.StallProb, s.StallMS))
	}
	for _, c := range s.Crashes {
		parts = append(parts, fmt.Sprintf("crash@%s:n=%d", c.Site, c.N))
	}
	return strings.Join(parts, ";")
}

// ParseSpec reads the compact chaos grammar used by the -chaos CLI
// flag: semicolon-separated clauses, each a fault kind with optional
// ":key=value" parameters (the same shape as the -faults grammar).
//
//	seed=42                 RNG seed (default 1)
//	journal-io:p=0.1        each journal write/fsync fails with p=0.1
//	slow-disk:ms=5          every journal append takes 5ms extra
//	stall:p=0.05,ms=200     workers pause 200ms before 5% of jobs
//	crash@recover:n=1       crash the 1st time site "recover" is hit
//
// Example: "seed=7;journal-io:p=0.1;crash@checkpoint:n=2".
// The returned spec is validated; malformed input yields an error,
// never a panic.
func ParseSpec(s string) (*Spec, error) {
	spec := &Spec{Seed: 1}
	for _, clause := range strings.Split(s, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		if v, ok := strings.CutPrefix(clause, "seed="); ok {
			seed, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("chaos: bad seed %q: %v", v, err)
			}
			spec.Seed = seed
			continue
		}
		head, params, _ := strings.Cut(clause, ":")
		name, site, hasSite := strings.Cut(head, "@")
		kv, err := parseParams(params)
		if err != nil {
			return nil, fmt.Errorf("chaos: %q: %v", clause, err)
		}
		switch name {
		case "journal-io":
			p, err := probParam(kv, "p", clause)
			if err != nil {
				return nil, err
			}
			spec.JournalIOProb = p
		case "slow-disk":
			ms, err := msParam(kv, "ms", clause)
			if err != nil {
				return nil, err
			}
			spec.SlowDiskMS = ms
		case "stall":
			p, err := probParam(kv, "p", clause)
			if err != nil {
				return nil, err
			}
			ms, err := msParam(kv, "ms", clause)
			if err != nil {
				return nil, err
			}
			spec.StallProb = p
			spec.StallMS = ms
		case "crash":
			if !hasSite || site == "" {
				return nil, fmt.Errorf("chaos: %q needs a site: crash@<site>:n=<k>", clause)
			}
			n := 1
			if v, ok := kv["n"]; ok {
				n, err = strconv.Atoi(v)
				if err != nil {
					return nil, fmt.Errorf("chaos: %q: bad count %q: %v", clause, v, err)
				}
			}
			spec.Crashes = append(spec.Crashes, CrashPoint{Site: site, N: n})
		default:
			return nil, fmt.Errorf("chaos: unknown clause %q (want seed=, journal-io, slow-disk, stall, crash@<site>)", clause)
		}
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

func probParam(kv map[string]string, key, clause string) (float64, error) {
	v, ok := kv[key]
	if !ok {
		return 0, fmt.Errorf("chaos: %q needs %s=<prob>", clause, key)
	}
	p, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("chaos: %q: bad probability %q: %v", clause, v, err)
	}
	return p, nil
}

func msParam(kv map[string]string, key, clause string) (int, error) {
	v, ok := kv[key]
	if !ok {
		return 0, fmt.Errorf("chaos: %q needs %s=<millis>", clause, key)
	}
	ms, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("chaos: %q: bad duration %q: %v", clause, v, err)
	}
	return ms, nil
}

// parseParams splits "k=v,k=v".
func parseParams(s string) (map[string]string, error) {
	kv := make(map[string]string)
	if s == "" {
		return kv, nil
	}
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(part, "=")
		if !ok || strings.TrimSpace(k) == "" {
			return nil, fmt.Errorf("bad parameter %q (want key=value)", part)
		}
		kv[strings.TrimSpace(k)] = strings.TrimSpace(v)
	}
	return kv, nil
}

// Counts tallies what the injector actually did, for tests and the
// metrics layer.
type Counts struct {
	IOErrors  int64 // journal write/fsync failures injected
	Stalls    int64 // worker stalls injected
	CrashHits int64 // crash-point evaluations that reached their site
}

// Injector replays a Spec. All methods are safe for concurrent use —
// the serving layer's workers share one injector — and all are
// nil-receiver-safe so production paths carry no chaos guards.
type Injector struct {
	spec Spec

	mu      sync.Mutex
	rng     *rand.Rand        // guarded by mu
	hits    map[string]int    // guarded by mu
	counts  Counts            // guarded by mu
	crashFn func(site string) // guarded by mu
}

// New builds an injector for the spec. A nil or empty spec yields a
// nil injector, which is valid and injects nothing.
func New(spec *Spec) (*Injector, error) {
	if spec.Empty() {
		return nil, nil
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Injector{
		spec: *spec,
		rng:  rand.New(rand.NewSource(spec.Seed)),
		hits: make(map[string]int),
	}, nil
}

// SetCrashFn installs the function a triggered crash point calls.
// scm-serve wires this to os.Exit so a crash is a real process death;
// tests substitute a recorder. With no function installed a triggered
// crash point is a no-op (beyond counting the hit).
func (in *Injector) SetCrashFn(fn func(site string)) {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.crashFn = fn
}

// JournalWriteErr is the journal's Options.WriteErr hook: it decides
// whether this write or fsync ("write" / "sync") fails. Failures wrap
// ErrInjected.
func (in *Injector) JournalWriteErr(op string) error {
	if in == nil || in.spec.JournalIOProb == 0 {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.rng.Float64() >= in.spec.JournalIOProb {
		return nil
	}
	in.counts.IOErrors++
	return fmt.Errorf("%w: journal %s failed", ErrInjected, op)
}

// JournalLatency is the journal's Options.Latency hook: the extra
// delay each append should sleep to model a slow disk.
func (in *Injector) JournalLatency() time.Duration {
	if in == nil || in.spec.SlowDiskMS == 0 {
		return 0
	}
	return time.Duration(in.spec.SlowDiskMS) * time.Millisecond
}

// StallDelay reports how long a worker should pause before starting
// its next job: zero almost always, StallMS when the stall draw fires.
func (in *Injector) StallDelay() time.Duration {
	if in == nil || in.spec.StallProb == 0 {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.rng.Float64() >= in.spec.StallProb {
		return 0
	}
	in.counts.Stalls++
	return time.Duration(in.spec.StallMS) * time.Millisecond
}

// Hit marks one execution of a named crash site. If a scheduled crash
// point's count is reached, the installed crash function runs — in
// production that call never returns (os.Exit). Sites not named in the
// spec cost one map lookup.
func (in *Injector) Hit(site string) {
	if in == nil || len(in.spec.Crashes) == 0 {
		return
	}
	in.mu.Lock()
	var fire func(string)
	for _, c := range in.spec.Crashes {
		if c.Site != site {
			continue
		}
		in.hits[site]++
		in.counts.CrashHits++
		if in.hits[site] == c.N {
			fire = in.crashFn
		}
		break
	}
	in.mu.Unlock()
	if fire != nil {
		fire(site)
	}
}

// Counts returns what the injector has done so far.
func (in *Injector) Counts() Counts {
	if in == nil {
		return Counts{}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.counts
}

// Spec returns a copy of the plan the injector replays.
func (in *Injector) Spec() Spec {
	if in == nil {
		return Spec{}
	}
	return in.spec
}
