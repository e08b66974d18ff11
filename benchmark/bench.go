package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"shortcutmining/internal/bench"
	"shortcutmining/internal/core"
	"shortcutmining/internal/dram"
	"shortcutmining/internal/journal"
	"shortcutmining/internal/nn"
	"shortcutmining/internal/stats"
)

var workloadNames = []string{"sim-sweep", "serve-hot", "serve-cold", "serve-durable"}

const (
	// minOps is the fewest ops a timed window may hold, so that p99 has
	// at least 10 samples beyond it; a window runs past its duration
	// until it has them.
	minOps = 1000
	// setupReps is how many times a run sets the workload up; setup_s
	// is the median.
	setupReps = 9
	// clientCount is the closed-loop client count of the serve
	// workloads, and the engine's worker count: the CPU count of the
	// host the bounds were measured on.
	clientCount = 2
	// maxSpans bounds one client's in-memory trace; a traced window
	// that fills it ends early.
	maxSpans = 500_000
)

// options is one invocation's settings.
type options struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	spans    string // traced runs write the Chrome trace here
}

// system is one workload's system under test.
type system interface {
	// clients is the number of closed-loop clients.
	clients() int
	// prepare does the untimed work before set-up repetition rep.
	prepare(ctx context.Context, rep int) error
	// setup brings the system up; it is what setup_s times.
	setup(ctx context.Context, rep int) error
	// teardown stops what the last setup started.
	teardown(ctx context.Context) error
	// quiesce returns once the system, its clients stopped, has
	// finished the background work their ops left behind.
	quiesce(ctx context.Context) error
	// op runs op i as client c, leaving its output in c.
	op(ctx context.Context, c *client, i int64, d doc) error
	// check inspects the output of op i outside its timing, queueing
	// deep checks in c.checks.
	check(c *client, i int64, d doc) error
	// verify runs one queued deep check after timing ends.
	verify(ctx context.Context, p pending) error
	// cache reports the result cache's hit and miss counts.
	cache() (hits, misses int64)
}

// pending is a deep check queued during timing and run after it.
type pending struct {
	op          int64
	totalCycles int64
	traffic     dram.Traffic
	sum         [32]byte
}

// client is one closed-loop load generator.
type client struct {
	id       int
	http     *http.Client
	body     []byte       // request body scratch
	buf      bytes.Buffer // reply scratch
	last     stats.RunStats
	lat      []float64 // op latencies, ms
	failed   int64
	rejected int64 // refused by admission control (HTTP 429)
	errs     []string
	polls    int64
	checks   []pending

	// Traced windows only.
	rec     *recorder
	opSpan  int32
	journal *journal.Journal
}

func (c *client) fail(i int64, err error) {
	c.failed++
	if len(c.errs) < 5 {
		c.errs = append(c.errs, fmt.Sprintf("op %d: %v", i, err))
	}
}

// runner drives one workload through set-up, timed windows and checks.
type runner struct {
	o       options
	plan    *plan
	sys     system
	shared  *sharedInputs
	clients []*client
	cursor  int64 // next plan index
	dir     string
	ref     refMeter // the trial window's reference slices
}

// sharedInputs are built once per run, outside every timing.
type sharedInputs struct {
	graphs   map[string][]byte // compact JSON graph per network
	sweepNet *nn.Network
}

func newSharedInputs() (*sharedInputs, error) {
	s := &sharedInputs{graphs: map[string][]byte{}}
	names := append([]string{sweepNetwork}, serveNetworks...)
	for _, ns := range simCombos {
		names = append(names, ns.Network)
	}
	for _, name := range names {
		if _, ok := s.graphs[name]; ok {
			continue
		}
		net, err := nn.Build(name)
		if err != nil {
			return nil, err
		}
		var full, compact bytes.Buffer
		if err := nn.EncodeJSON(&full, net); err != nil {
			return nil, err
		}
		if err := json.Compact(&compact, full.Bytes()); err != nil {
			return nil, err
		}
		s.graphs[name] = compact.Bytes()
	}
	var err error
	s.sweepNet, err = nn.Build(sweepNetwork)
	return s, err
}

// run executes one invocation: a trial, or a traced run.
func run(ctx context.Context, o options) (*Report, error) {
	p, err := newPlan(o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	if err := checkAnchors(ctx); err != nil {
		return nil, err
	}
	shared, err := newSharedInputs()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "scm-bench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &runner{o: o, plan: p, shared: shared, dir: dir}
	switch o.workload {
	case "sim-sweep":
		r.sys = &simSystem{}
	default:
		r.sys = newServeSystem(o.workload, p, shared, dir)
	}
	switch o.workload { // ops set-up sends are not timed again
	case "serve-durable":
		r.cursor = durablePrerun
	case "serve-hot", "serve-cold":
		r.cursor = warmOps
	}
	setups := make([]float64, setupReps)
	var setupRef refMeter
	for rep := range setups {
		if rep > 0 {
			if err := r.sys.teardown(ctx); err != nil {
				return nil, fmt.Errorf("teardown: %w", err)
			}
		}
		if err := r.sys.prepare(ctx, rep); err != nil {
			return nil, fmt.Errorf("prepare: %w", err)
		}
		setupRef.slice()
		runtime.GC()
		start := time.Now()
		if err := r.sys.setup(ctx, rep); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups[rep] = time.Since(start).Seconds()
	}
	defer r.sys.teardown(ctx)

	tr := &http.Transport{MaxIdleConnsPerHost: clientCount, MaxConnsPerHost: clientCount, DisableCompression: true}
	defer tr.CloseIdleConnections()
	for id := range r.sys.clients() {
		r.clients = append(r.clients, &client{id: id, http: &http.Client{Transport: tr}})
	}
	// Warm-up: lazy set-up finishes and connections open before timing.
	if _, err := r.window(ctx, min(r.o.window/10, time.Second), 0, modePlain); err != nil {
		return nil, err
	}
	for _, c := range r.clients {
		if c.failed > 0 {
			return nil, fmt.Errorf("warm-up: %s", c.errs[0])
		}
	}
	r.reset()

	rep := &Report{
		Schema: schema, Workload: o.workload, Seed: o.seed, Seconds: o.window.Seconds(),
		Traced: o.traced, Host: bench.CurrentHost(),
	}
	if o.traced {
		err = r.tracedRun(ctx, rep)
	} else {
		rep.SetupReferenceRate = setupRef.rate()
		err = r.trial(ctx, rep, median(setups)/setupRef.slow())
	}
	if err != nil {
		return nil, err
	}
	rep.Correct = rep.Failed == 0 && len(rep.Errors) == 0
	return rep, nil
}

// Window modes.
const (
	modePlain     = iota
	modeReference // time the reference kernel every refEvery
	modeTraced    // record spans and replay every op
)

// window runs the clients until d of window time has passed and at
// least least ops completed, and returns that time. In modeReference
// the window is cut into segments of refEvery, and after each the
// reference kernel runs with the system stopped (see reference.go);
// only the kernel's own slices are left out of the window. Op errors
// count against their client; the returned error is for a run that
// cannot continue.
func (r *runner) window(ctx context.Context, d time.Duration, least int64, mode int) (time.Duration, error) {
	var next, done atomic.Int64
	var stop atomic.Bool
	next.Store(r.cursor)
	defer func() { r.cursor = next.Load() }()
	start := time.Now()
	var paused time.Duration // changes only while no client runs
	elapsed := func() time.Duration { return time.Since(start) - paused }
	over := func() bool { return done.Load() >= least && elapsed() >= d }
	errs := make([]error, len(r.clients))
	for {
		end := time.Duration(math.MaxInt64)
		if mode == modeReference {
			end = elapsed() + refEvery
		}
		var wg sync.WaitGroup
		for k, c := range r.clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ctx.Err() == nil && !stop.Load() && !over() && elapsed() < end {
					if mode == modeTraced && len(c.rec.spans) >= maxSpans {
						stop.Store(true)
						return
					}
					i := next.Add(1) - 1
					dc, err := r.plan.doc(i)
					if err != nil {
						errs[k] = err
						stop.Store(true)
						return
					}
					r.do(ctx, c, i, dc, mode == modeTraced)
					done.Add(1)
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return 0, err
			}
		}
		if mode == modeReference {
			slice, err := r.referenceSlice(ctx)
			if err != nil {
				return 0, err
			}
			paused += slice
		}
		if ctx.Err() != nil || stop.Load() || over() {
			return elapsed(), ctx.Err()
		}
	}
}

// referenceSlice drains the stopped system, waits for a collection in
// progress — both still the window's time — and then runs one slice of
// the reference kernel, returning how long the slice took.
func (r *runner) referenceSlice(ctx context.Context) (time.Duration, error) {
	if err := r.sys.quiesce(ctx); err != nil {
		return 0, err
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	start := time.Now()
	r.ref.slice()
	return time.Since(start), nil
}

// do runs, times and checks one op; a traced op is then replayed
// through the layers.
func (r *runner) do(ctx context.Context, c *client, i int64, d doc, traced bool) {
	if traced {
		c.opSpan = c.rec.begin(spanOp, i, -1)
	}
	start := time.Now()
	err := r.sys.op(ctx, c, i, d)
	c.lat = append(c.lat, float64(time.Since(start))/1e6)
	if traced {
		c.rec.end(c.opSpan, 0)
	}
	if err == nil {
		err = r.sys.check(c, i, d)
	}
	if err == nil && traced {
		err = r.replay(ctx, c, i, d)
	}
	if err != nil {
		c.fail(i, err)
	}
}

// reset drops the clients' tallies (after the warm-up).
func (r *runner) reset() {
	for _, c := range r.clients {
		c.lat, c.failed, c.rejected, c.errs, c.polls, c.checks = c.lat[:0], 0, 0, nil, 0, nil
	}
}

// tally merges the clients' op counts and runs the queued deep checks.
func (r *runner) tally(ctx context.Context, rep *Report) (lat []float64, polls, rejected int64) {
	for _, c := range r.clients {
		lat = append(lat, c.lat...)
		rep.Failed += c.failed
		rep.Errors = append(rep.Errors, c.errs...)
		polls += c.polls
		rejected += c.rejected
		for _, p := range c.checks {
			if err := r.sys.verify(ctx, p); err != nil {
				rep.Failed++
				if len(rep.Errors) < 10 {
					rep.Errors = append(rep.Errors, fmt.Sprintf("op %d: %v", p.op, err))
				}
			}
		}
	}
	rep.Attempted = int64(len(lat))
	return sortedCopy(lat), polls, rejected
}

// cacheRatio is the timed windows' hit ratio; serve-hot must hit every
// time and serve-cold never.
func (r *runner) cacheRatio(rep *Report, h0, m0 int64) float64 {
	h1, m1 := r.sys.cache()
	hits, misses := h1-h0, m1-m0
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	want := map[string]float64{"serve-hot": 1, "serve-cold": 0}
	if w, ok := want[r.o.workload]; ok && ratio != w {
		rep.Errors = append(rep.Errors, fmt.Sprintf("cache hit ratio %g (%d hits, %d misses), want %g", ratio, hits, misses, w))
	}
	return ratio
}

// trial is a timed window reporting the end-to-end metrics, its
// timings scaled to the reference host speed (see reference.go).
func (r *runner) trial(ctx context.Context, rep *Report, setupS float64) error {
	h0, m0 := r.sys.cache()
	runtime.GC()
	allocs0 := heapAllocs()
	elapsed, err := r.window(ctx, r.o.window, minOps, modeReference)
	if err != nil {
		return err
	}
	allocs := heapAllocs() - allocs0
	// The clients' scratch holds whichever op ran last, and their per-op
	// records grow with throughput: neither is the system's memory.
	own := uint64(0)
	for _, c := range r.clients {
		c.last, c.body, c.buf = stats.RunStats{}, nil, bytes.Buffer{}
		own += uint64(cap(c.lat))*uint64(unsafe.Sizeof(c.lat[0])) + uint64(cap(c.checks))*uint64(unsafe.Sizeof(pending{}))
	}
	runtime.GC()
	runtime.GC() // the second collection empties the sync.Pool victim caches
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	rep.ReferenceRate = r.ref.rate()
	slow := r.ref.slow()

	r.cacheRatio(rep, h0, m0)
	lat, _, _ := r.tally(ctx, rep)
	return rep.setMetrics(endToEnd, map[string]float64{
		"ops_per_s":       float64(rep.Attempted-rep.Failed) / elapsed.Seconds() * slow,
		"op_ms_p50":       quantile(lat, 0.50) / slow,
		"op_ms_p99":       quantile(lat, 0.99) / slow,
		"setup_s":         setupS,
		"alloc_kb_per_op": float64(allocs) / 1024 / float64(rep.Attempted),
		"heap_live_mb":    float64(live.HeapAlloc-own) / (1 << 20),
	})
}

// tracedRun runs half the window untraced, then half traced with every op
// replayed through the layers, then probes core alone, and reports the
// per-layer metrics.
func (r *runner) tracedRun(ctx context.Context, rep *Report) error {
	h0, m0 := r.sys.cache()
	half := r.o.window / 2
	plainFrom := r.cursor
	gc0 := readGC()
	plainDur, err := r.window(ctx, half, minOps, modePlain)
	if err != nil {
		return err
	}
	gc1 := readGC()
	plainOps := r.cursor - plainFrom

	epoch := time.Now()
	for _, c := range r.clients {
		c.rec = &recorder{epoch: epoch}
		jdir := filepath.Join(r.dir, fmt.Sprintf("replay-journal-%d", c.id))
		if c.journal, _, err = journal.Open(jdir, journal.Options{}); err != nil {
			return err
		}
	}
	tracedFrom := r.cursor
	tracedDur, err := r.window(ctx, half, minOps, modeTraced)
	if err != nil {
		return err
	}
	tracedOps := r.cursor - tracedFrom
	for _, c := range r.clients {
		if err := c.journal.Close(); err != nil {
			return err
		}
	}

	recoverMS, err := timeRecover(filepath.Join(r.dir, "replay-journal-0"))
	if err != nil {
		return err
	}
	probe, err := r.probeCore(ctx, tracedFrom)
	if err != nil {
		return err
	}
	ratio := r.cacheRatio(rep, h0, m0)
	_, polls, rejected := r.tally(ctx, rep)

	values, layers, err := layerMetrics(r.clients)
	if err != nil {
		return err
	}
	rep.Layers = layers
	for k, v := range probe {
		values[k] = v
	}
	values["journal.recover_ms"] = recoverMS
	values["serve.cache_hit_ratio"] = ratio
	values["serve.polls_per_job"] = float64(polls) / float64(rep.Attempted)
	values["serve.rejected_ratio"] = float64(rejected) / float64(rep.Attempted)
	values["runtime.gc_cpu_fraction"], values["runtime.gc_pause_ms_p99"] = gc1.since(gc0)
	values["bench.trace_overhead_ratio"] = (float64(plainOps) / plainDur.Seconds()) / (float64(tracedOps) / tracedDur.Seconds())
	if err := rep.setMetrics(perLayer, values); err != nil {
		return err
	}
	return writeTrace(r.o.spans, r.clients)
}

// gcSample is a point-in-time reading of the Go runtime's GC counters.
type gcSample struct {
	gcCPU, totalCPU float64
	mem             runtime.MemStats
}

func readGC() gcSample {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	var g gcSample
	g.gcCPU, g.totalCPU = s[0].Value.Float64(), s[1].Value.Float64()
	runtime.ReadMemStats(&g.mem)
	return g
}

// since returns the GC's share of CPU time between the two samples and
// the p99 of the GC pauses in between (at most the last 256).
func (g gcSample) since(prev gcSample) (cpuFraction, pauseP99MS float64) {
	if d := g.totalCPU - prev.totalCPU; d > 0 {
		cpuFraction = (g.gcCPU - prev.gcCPU) / d
	}
	n := min(g.mem.NumGC-prev.mem.NumGC, uint32(len(g.mem.PauseNs)))
	var pauses []float64
	for k := uint32(0); k < n; k++ {
		idx := (g.mem.NumGC - 1 - k) % uint32(len(g.mem.PauseNs))
		pauses = append(pauses, float64(g.mem.PauseNs[idx])/1e6)
	}
	sort.Float64s(pauses)
	return cpuFraction, quantile(pauses, 0.99)
}

// heapAllocs is the bytes the process has allocated on the heap so far.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// timeRecover is the median time journal.Open takes to replay dir.
func timeRecover(dir string) (float64, error) {
	var ms []float64
	for range 3 {
		start := time.Now()
		j, _, err := journal.Open(dir, journal.Options{})
		if err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(start))/1e6)
		if err := j.Close(); err != nil {
			return 0, err
		}
	}
	return median(ms), nil
}

// median of xs (the mean of the middle two for an even count).
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// anchors are the paper's headline feature-map traffic reductions as
// this model reproduces them at core.Default() (EXPERIMENTS.md).
var anchors = []struct {
	network, want string
}{
	{"squeezenet-bypass", "53.5"},
	{"resnet34", "68.8"},
	{"resnet152", "43.0"},
}

// checkAnchors fails when the simulator no longer reproduces the
// anchors, whatever the workload.
func checkAnchors(ctx context.Context) error {
	for _, a := range anchors {
		net, err := nn.Build(a.network)
		if err != nil {
			return err
		}
		base, err := core.SimulateContext(ctx, net, core.Default(), core.Baseline, nil)
		if err != nil {
			return err
		}
		scm, err := core.SimulateContext(ctx, net, core.Default(), core.SCM, nil)
		if err != nil {
			return err
		}
		if got := fmt.Sprintf("%.1f", 100*scm.TrafficReductionVs(base)); got != a.want {
			return fmt.Errorf("paper anchor: %s feature-map traffic reduction %s%%, want %s%%", a.network, got, a.want)
		}
	}
	return nil
}
