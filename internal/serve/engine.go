package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"shortcutmining/internal/chaos"
	"shortcutmining/internal/core"
	"shortcutmining/internal/dse"
	"shortcutmining/internal/journal"
	"shortcutmining/internal/metrics"
	"shortcutmining/internal/nn"
	"shortcutmining/internal/sched"
	"shortcutmining/internal/serve/pool"
	"shortcutmining/internal/stats"
	"shortcutmining/internal/trace"
)

// Sentinel errors the HTTP layer maps onto status codes.
var (
	// ErrBusy reports that the bounded job queue is full (HTTP 429).
	ErrBusy = errors.New("serve: job queue full")
	// ErrDraining reports that the engine is shutting down (HTTP 503).
	ErrDraining = errors.New("serve: draining")
)

// Server-level metric names (the per-run simulator metrics live in
// internal/core; these describe the service wrapped around it).
const (
	MetricJobs          = "scm_serve_jobs_total"
	MetricJobsRejected  = "scm_serve_jobs_rejected_total"
	MetricCacheHits     = "scm_serve_cache_hits_total"
	MetricCacheMisses   = "scm_serve_cache_misses_total"
	MetricCacheLookups  = "scm_serve_cache_lookups"
	MetricInflightDedup = "scm_serve_inflight_dedup_total"
	MetricCacheBytes    = "scm_serve_cache_bytes"
	MetricCacheEntries  = "scm_serve_cache_entries"
	MetricCacheEvicted  = "scm_serve_cache_evictions"
	MetricQueueDepth    = "scm_serve_queue_depth"
	MetricBusyWorkers   = "scm_serve_busy_workers"
	MetricJobSeconds    = "scm_serve_job_seconds"

	// Durability metrics (exported only when a journal is configured).
	MetricJournalAppendFailures     = "scm_journal_append_failures_total"
	MetricJournalCheckpoints        = "scm_journal_checkpoints_total"
	MetricJournalCheckpointFailures = "scm_journal_checkpoint_failures_total"
	MetricRecoveredJobs             = "scm_recovery_jobs_total"
)

// Options configures an Engine. The zero value is usable: GOMAXPROCS
// workers, a 64-deep queue, 64 MiB of result cache, no job timeout.
type Options struct {
	// Workers is the worker-pool size; <= 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds the jobs accepted but not yet running; a full
	// queue rejects with ErrBusy (admission control). <= 0 means 64.
	QueueDepth int
	// CacheBytes is the result-cache budget; <= 0 means 64 MiB.
	CacheBytes int64
	// JobTimeout bounds each job's simulated work; 0 means unbounded.
	JobTimeout time.Duration
	// MaxJobs bounds the finished-job history kept for GET /v1/jobs;
	// <= 0 means 1024.
	MaxJobs int
	// JobPrefix namespaces this engine's job IDs ("" means "j", the
	// single-instance default). A sharded deployment gives every shard
	// its own prefix ("s0-j", "s1-j", …) so IDs stay globally unique and
	// a job lookup can be routed back to the shard that owns it.
	JobPrefix string
	// JobTTL evicts terminal jobs from the history this long after they
	// finish (measured on Clock); 0 keeps them until MaxJobs pushes
	// them out. MaxJobs stays in force as the backstop either way.
	JobTTL time.Duration
	// Journal, when set, makes the engine crash-resilient: every async
	// job's lifecycle is written through the journal (fsync before the
	// transition is acknowledged), and Recover replays it after a
	// restart. Nil runs the engine in the original in-memory mode.
	// The engine owns appends; opening and closing the journal is the
	// caller's job.
	Journal *journal.Journal
	// CheckpointLayers, with Journal set, checkpoints eligible simulate
	// jobs every K layer boundaries (core.Run suspend + snapshot into a
	// journal record) so a restarted server resumes mid-network.
	// Eligible means: not observed, no fault injection. 0 disables
	// checkpointing.
	CheckpointLayers int
	// CompactEvery, with Journal set, compacts the journal in the
	// background after this many acknowledged appends: terminal jobs'
	// records are dropped and only each live job's newest checkpoint
	// survives, so a long-running server's journal is bounded by its
	// live work, not its history (Recover compacts once more at boot).
	// <= 0 means 512.
	CompactEvery int
	// Chaos injects serving-layer faults (journal I/O errors, worker
	// stalls, crash points); nil injects nothing. The caller wires the
	// same injector into the journal's Options hooks.
	Chaos *chaos.Injector
	// Clock supplies job timestamps and latency measurement; nil means
	// the system clock. Tests substitute a fake for deterministic
	// timing assertions.
	Clock Clock
	// Registry receives the server-level metrics; nil means a fresh
	// one (exposed at GET /metrics).
	Registry *metrics.Registry
	// Logger receives the structured access log (one line per HTTP
	// request, carrying the request ID); nil discards it. cmd/scm-serve
	// wires a text handler on stderr.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.CacheBytes <= 0 {
		o.CacheBytes = 64 << 20
	}
	if o.MaxJobs <= 0 {
		o.MaxJobs = 1024
	}
	if o.CompactEvery <= 0 {
		o.CompactEvery = 512
	}
	if o.Registry == nil {
		o.Registry = metrics.New()
	}
	if o.Clock == nil {
		o.Clock = systemClock
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return o
}

// flight is one in-progress execution shared by identical synchronous
// requests (single-flight).
type flight struct {
	done chan struct{}
	res  stats.RunStats
	err  error
}

// Engine is the job-oriented execution subsystem: a bounded worker
// pool running simulations with per-job registry isolation, fronted by
// the content-addressed cache and a single-flight table.
type Engine struct {
	opts   Options
	pool   *pool.Pool
	cache  *Cache
	reg    *metrics.Registry
	clock  Clock
	logger *slog.Logger
	rt     *metrics.RuntimeCollector

	runCtx    context.Context // parent of every job context
	runCancel context.CancelFunc

	mu         sync.Mutex
	draining   bool            // guarded by mu
	recovering bool            // guarded by mu
	flight     map[Key]*flight // guarded by mu
	jobs       map[string]*Job // guarded by mu
	jobOrder   []string        // guarded by mu: creation order, for pruning
	seq        int             // guarded by mu

	// Durability state (zero-valued when Options.Journal is nil).
	lastJournalErr   error        // guarded by mu
	lastJournalErrAt time.Time    // guarded by mu
	journalAppends   atomic.Int64 // acknowledged appends, for the compaction cadence
	compacting       atomic.Bool  // a background compaction is in flight

	active sync.WaitGroup // every admitted task, queued or running

	// simFn runs one untraced simulation; tests substitute a
	// controllable fake.
	simFn func(ctx context.Context, req Request) (stats.RunStats, error)

	mJobsDone, mJobsFailed, mJobsCanceled *metrics.Counter
	mRejected                             *metrics.Counter
	mCacheHits, mCacheMisses, mDedup      *metrics.Counter
	mJobSeconds                           *metrics.Histogram
	mJournalFailures                      *metrics.Counter
	mCheckpoints, mCheckpointFailures     *metrics.Counter
}

// NewEngine builds and starts an engine.
func NewEngine(opts Options) *Engine {
	opts = opts.withDefaults()
	// scmvet:ok ctxflow engine-lifetime root context; shutdown is Close/Drain, not caller cancellation
	ctx, cancel := context.WithCancel(context.Background())
	e := &Engine{
		opts:      opts,
		pool:      pool.New(opts.Workers, opts.QueueDepth),
		cache:     NewCache(opts.CacheBytes),
		reg:       opts.Registry,
		clock:     opts.Clock,
		logger:    opts.Logger,
		runCtx:    ctx,
		runCancel: cancel,
		flight:    make(map[Key]*flight),
		jobs:      make(map[string]*Job),
	}
	e.simFn = func(ctx context.Context, req Request) (stats.RunStats, error) { return runSimulation(ctx, req, nil) }
	e.rt = metrics.NewRuntimeCollector(e.reg)
	e.mJobsDone = e.reg.Counter(MetricJobs, "jobs by terminal state", metrics.L("state", "done"))
	e.mJobsFailed = e.reg.Counter(MetricJobs, "jobs by terminal state", metrics.L("state", "failed"))
	e.mJobsCanceled = e.reg.Counter(MetricJobs, "jobs by terminal state", metrics.L("state", "canceled"))
	e.mRejected = e.reg.Counter(MetricJobsRejected, "submissions refused by admission control")
	e.mCacheHits = e.reg.Counter(MetricCacheHits, "results served from the content-addressed cache")
	e.mCacheMisses = e.reg.Counter(MetricCacheMisses, "simulations actually executed")
	e.mDedup = e.reg.Counter(MetricInflightDedup, "requests that joined an identical in-flight execution")
	e.mJobSeconds = e.reg.Histogram(MetricJobSeconds, "wall-clock seconds per executed job",
		[]float64{0.001, 0.01, 0.1, 1, 10, 60, 600})
	e.mJournalFailures = e.reg.Counter(MetricJournalAppendFailures,
		"journal appends that failed (the job proceeded, health degraded)")
	e.mCheckpoints = e.reg.Counter(MetricJournalCheckpoints,
		"layer-boundary checkpoints written to the journal")
	e.mCheckpointFailures = e.reg.Counter(MetricJournalCheckpointFailures,
		"layer-boundary checkpoints lost to snapshot or encode errors (crash-resume coverage gaps)")
	return e
}

// runSimulation runs one simulation, traced when rec is set. Each job
// gets its own metrics registry (when observed) and no shared mutable
// state, so jobs are isolated and results deterministic.
func runSimulation(ctx context.Context, req Request, rec trace.Recorder) (stats.RunStats, error) {
	if req.Observe {
		return core.SimulateObservedContext(ctx, req.Net, req.Cfg, req.Strategy, rec, metrics.New())
	}
	return core.SimulateContext(ctx, req.Net, req.Cfg, req.Strategy, rec)
}

// Workers returns the pool size.
func (e *Engine) Workers() int { return e.pool.Workers() }

// CacheStats returns the result-cache counters.
func (e *Engine) CacheStats() CacheStats { return e.cache.Stats() }

// jobContext derives a job's context from the engine lifetime plus the
// configured per-job timeout.
func (e *Engine) jobContext() (context.Context, context.CancelFunc) {
	if e.opts.JobTimeout > 0 {
		return context.WithTimeout(e.runCtx, e.opts.JobTimeout)
	}
	return context.WithCancel(e.runCtx)
}

// timed runs one execution, observing its wall time in the job-seconds
// histogram and folding its error into the terminal-state counters. A
// deadline expiry is the service failing the work it accepted, so it
// counts as failed; only a genuine cancellation (caller hung up, engine
// draining) counts as canceled.
func timed[T any](e *Engine, run func() (T, error)) (T, error) {
	start := e.clock()
	res, err := run()
	e.mJobSeconds.Observe(e.clock().Sub(start).Seconds())
	switch {
	case err == nil:
		e.mJobsDone.Inc()
	case errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded):
		e.mJobsCanceled.Inc()
	default:
		e.mJobsFailed.Inc()
	}
	return res, err
}

// wait blocks until the flight settles or ctx ends.
func (f *flight) wait(ctx context.Context) (stats.RunStats, error) {
	select {
	case <-f.done:
		return f.res, f.err
	case <-ctx.Done():
		return stats.RunStats{}, ctx.Err()
	}
}

// runSync is the admission path of the synchronous runs: it submits run
// to the worker pool under a job context (ErrBusy when the queue is
// full) and waits for f to settle or ctx to end. settle sees f's
// outcome just before f.done closes, on the worker or, for a rejection,
// here. The caller has already counted the run in e.active.
func (e *Engine) runSync(ctx context.Context, f *flight, run func(context.Context) (stats.RunStats, error), settle func()) (stats.RunStats, error) {
	jobCtx, cancel := e.jobContext()
	finish := func(res stats.RunStats, err error) {
		f.res, f.err = res, err
		settle()
		close(f.done)
	}
	task := func() {
		defer e.active.Done()
		defer cancel()
		finish(timed(e, func() (stats.RunStats, error) { return run(jobCtx) }))
	}
	if !e.pool.TrySubmit(task) {
		e.active.Done()
		cancel()
		e.mRejected.Inc()
		finish(stats.RunStats{}, ErrBusy) // joiners in the window share the rejection
		return stats.RunStats{}, ErrBusy
	}
	return f.wait(ctx)
}

// Simulate runs req synchronously: a warm cache hit returns at once
// without touching the worker pool; identical concurrent requests
// share one execution (single-flight); everything else is admitted to
// the bounded queue or rejected with ErrBusy. The caller's ctx bounds
// only the wait — an admitted execution keeps running and lands in the
// cache even if the caller gives up.
//
// The returned bool reports a warm cache hit (single-flight sharing
// returns false: the work did run, just once for everyone).
func (e *Engine) Simulate(ctx context.Context, req Request) (stats.RunStats, bool, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	key, err := RequestKey(req)
	if err != nil {
		return stats.RunStats{}, false, err
	}
	if res, ok := e.cache.Get(key); ok {
		e.mCacheHits.Inc()
		return res, true, nil
	}

	e.mu.Lock()
	if e.draining {
		e.mu.Unlock()
		return stats.RunStats{}, false, ErrDraining
	}
	if f, ok := e.flight[key]; ok { // join the identical in-flight run
		e.mu.Unlock()
		e.mDedup.Inc()
		res, err := f.wait(ctx)
		return res, false, err
	}
	f := &flight{done: make(chan struct{})}
	e.flight[key] = f
	e.active.Add(1)
	e.mu.Unlock()
	e.mCacheMisses.Inc()

	res, err := e.runSync(ctx, f, func(ctx context.Context) (stats.RunStats, error) { return e.simFn(ctx, req) }, func() {
		if f.err == nil {
			e.cache.Put(key, f.res)
		}
		e.mu.Lock()
		delete(e.flight, key)
		e.mu.Unlock()
	})
	return res, false, err
}

// SimulateTraced runs req synchronously with a cycle-level trace
// recorder attached and returns the recorded events alongside the
// result. The event stream is closed by a request-level span
// (trace.KindRequest) tagged with req.RequestID covering cycle 0 to
// RunStats.TotalCycles, which is what makes the HTTP request findable
// in the Perfetto export.
//
// Traced runs bypass both the result cache and the single-flight table
// — a cached RunStats carries no event stream, and two identical
// traced requests each want their own — but share the worker pool and
// admission control, so tracing cannot starve untraced traffic.
func (e *Engine) SimulateTraced(ctx context.Context, req Request) (stats.RunStats, []trace.Event, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if req.Net == nil {
		return stats.RunStats{}, nil, fmt.Errorf("serve: request has no network")
	}
	e.mu.Lock()
	if e.draining {
		e.mu.Unlock()
		return stats.RunStats{}, nil, ErrDraining
	}
	e.active.Add(1)
	e.mu.Unlock()
	e.mCacheMisses.Inc() // a traced run always executes

	buf := &trace.Buffer{}
	st := &trace.Stamper{R: buf}
	f := &flight{done: make(chan struct{})}
	res, err := e.runSync(ctx, f, func(ctx context.Context) (stats.RunStats, error) { return runSimulation(ctx, req, st) }, func() {
		if f.err == nil {
			st.Record(trace.Event{Kind: trace.KindRequest, Tag: req.RequestID, Cycle: 0, DurCycles: f.res.TotalCycles})
		}
	})
	if err != nil {
		return stats.RunStats{}, nil, err
	}
	return res, buf.Events, nil
}

// runSimulate is the simulate row's run: a cache hit finishes at once;
// otherwise the simulation runs, checkpointed when the job is eligible
// or continuing snap (crash recovery), and its result lands in the
// cache.
func (e *Engine) runSimulate(ctx context.Context, j *Job, req Request, snap *core.RunSnapshot) (View, error) {
	key, err := RequestKey(req)
	if err != nil { // re-validated; the submit path already checked
		return View{}, err
	}
	if res, ok := e.cache.Get(key); ok {
		e.mCacheHits.Inc()
		return View{Stats: &res, Cached: true}, nil
	}
	e.mCacheMisses.Inc()
	res, err := timed(e, func() (stats.RunStats, error) {
		if snap != nil || e.checkpointable(req) {
			return e.runCheckpointed(ctx, req, j, snap)
		}
		return e.simFn(ctx, req)
	})
	if err == nil {
		e.cache.Put(key, res)
	}
	return View{Stats: &res}, err
}

// SweepRequest is one asynchronous design-space sweep: every point of
// Space evaluated on Net (ExploreContext), optionally reduced to the
// Pareto frontier.
type SweepRequest struct {
	Net  *nn.Network
	Base core.Config
	// Space enumerates the candidates; a zero Space is rejected.
	Space dse.Space
	// Parallel is the sweep's internal fan-out; <= 0 means GOMAXPROCS.
	// It runs inside one pool slot (the fan-out goroutines are the
	// sweep's own), so a sweep occupies one worker regardless.
	Parallel int
	// Pareto reduces the result to the non-dominated frontier.
	Pareto bool
	// RequestID is the serving-layer correlation ID stamped into the
	// job record.
	RequestID string
}

// ScheduleRequest is one asynchronous scheduling run: a single-chip
// scenario's request streams time-sharing the platform's bank pool
// (SubmitSchedule), or, as a ClusterRequest, a chips>1 scenario run
// across simulated chips joined by the contended interconnect model
// (SubmitCluster, internal/cluster).
type ScheduleRequest struct {
	Cfg core.Config
	// Spec is the validated scenario; a nil Spec is rejected.
	Spec *sched.Spec
	// RequestID is the serving-layer correlation ID stamped into the
	// job record.
	RequestID string
}

// ClusterRequest is a multi-chip ScheduleRequest: its Spec must carry
// chips>1.
type ClusterRequest = ScheduleRequest

// SubmitSimulate enqueues req as an asynchronous job and returns its
// handle immediately. Async jobs share the result cache but not the
// single-flight table (each submission is a tracked job of its own).
func (e *Engine) SubmitSimulate(req Request) (*Job, error) {
	return e.submit(simulateKind, req, req.RequestID)
}

// SubmitSweep enqueues a design-space sweep job.
func (e *Engine) SubmitSweep(req SweepRequest) (*Job, error) {
	return e.submit(sweepKind, req, req.RequestID)
}

// SubmitSchedule enqueues a single-chip multi-tenant scheduling job.
// Scheduling runs bypass the result cache (their cost is dominated by
// the scenario, and the Result is cheap to recompute relative to its
// size), but they share the worker pool, admission control, and job
// lifecycle with every other kind.
func (e *Engine) SubmitSchedule(req ScheduleRequest) (*Job, error) {
	return e.submit(scheduleKind, req, req.RequestID)
}

// SubmitCluster enqueues a multi-chip sharded scheduling job. Like
// schedule jobs, cluster runs bypass the result cache but share the
// worker pool, admission control, and job lifecycle.
func (e *Engine) SubmitCluster(req ClusterRequest) (*Job, error) {
	return e.submit(clusterKind, req, req.RequestID)
}

// invalidError marks a request its kind's check refused (HTTP 400).
type invalidError struct{ error }

func (e invalidError) Unwrap() error { return e.error }

// submit is the one submission path: req is checked against its kind,
// given a job, encoded as the journaled accepted payload, and admitted.
func (e *Engine) submit(k *jobKind, req any, reqID string) (*Job, error) {
	if err := k.check(req); err != nil {
		return nil, invalidError{err}
	}
	j := e.newJob(k.name, reqID)
	var payload []byte
	if e.opts.Journal != nil {
		var err error
		if payload, err = encodePayload(k, req); err != nil {
			return nil, err
		}
	}
	return e.admit(j, payload, func(ctx context.Context) (View, error) { return k.run(e, ctx, j, req) })
}

// admit registers the job, writes its accepted record through the
// journal (durability first: the record is fsynced before the task can
// produce any effect), and submits its task through admission control;
// a rejected job is never visible through Job lookups. payload is the
// journaled re-submission document (nil when no journal is configured).
func (e *Engine) admit(j *Job, payload []byte, run func(ctx context.Context) (View, error)) (*Job, error) {
	e.mu.Lock()
	if e.draining {
		e.mu.Unlock()
		return nil, ErrDraining
	}
	e.jobs[j.id] = j
	e.jobOrder = append(e.jobOrder, j.id)
	e.pruneLocked()
	e.active.Add(1)
	e.mu.Unlock()

	e.journalJob(j, journal.Record{Op: journal.OpAccepted, Payload: payload})
	jobCtx, cancel := e.jobContext()
	j.setCancel(cancel)
	task := func() {
		defer e.active.Done()
		defer cancel()
		if d := e.opts.Chaos.StallDelay(); d > 0 {
			stall := time.NewTimer(d)
			select {
			case <-stall.C:
			case <-jobCtx.Done():
				stall.Stop()
			}
		}
		j.setRunning()
		e.journalJob(j, journal.Record{Op: journal.OpRunning})
		e.opts.Chaos.Hit("job-start")
		j.finish(run(jobCtx))
		e.journalTerminal(j)
		e.opts.Chaos.Hit("job-end")
	}
	if !e.pool.TrySubmit(task) {
		e.mu.Lock()
		delete(e.jobs, j.id)
		if n := len(e.jobOrder); n > 0 && e.jobOrder[n-1] == j.id {
			e.jobOrder = e.jobOrder[:n-1]
		}
		e.mu.Unlock()
		e.active.Done()
		cancel()
		e.mRejected.Inc()
		// The accepted record (if any) stays in the journal with no
		// terminal state; recovery would re-enqueue it, so mark the
		// rejection durably too.
		e.journalJob(j, journal.Record{Op: journal.OpFailed, Reason: "rejected"})
		return nil, ErrBusy
	}
	return j, nil
}

// pruneLocked evicts terminal jobs past their retention TTL, then the
// oldest finished jobs beyond the history cap (the backstop).
func (e *Engine) pruneLocked() {
	if ttl := e.opts.JobTTL; ttl > 0 {
		now := e.clock()
		kept := e.jobOrder[:0]
		for _, id := range e.jobOrder {
			if j := e.jobs[id]; j != nil && j.expired(now, ttl) {
				delete(e.jobs, id)
				continue
			}
			kept = append(kept, id)
		}
		e.jobOrder = kept
	}
	for len(e.jobOrder) > e.opts.MaxJobs {
		pruned := false
		for i, id := range e.jobOrder {
			if j := e.jobs[id]; j != nil && j.terminal() {
				delete(e.jobs, id)
				e.jobOrder = append(e.jobOrder[:i], e.jobOrder[i+1:]...)
				pruned = true
				break
			}
		}
		if !pruned {
			return // everything live; let history exceed the cap briefly
		}
	}
}

// Job returns the handle for id.
func (e *Engine) Job(id string) (*Job, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	return j, ok
}

// Draining reports whether the engine has begun shutdown.
func (e *Engine) Draining() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.draining
}

// Drain gracefully shuts the engine down: new submissions are refused
// with ErrDraining, queued and running jobs are given until ctx
// expires to finish, then the stragglers are canceled (they observe
// the cancellation at their next layer boundary) and awaited. Drain
// returns ctx.Err() if the deadline forced cancellations, nil when
// everything finished on its own.
func (e *Engine) Drain(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	e.mu.Lock()
	e.draining = true
	e.mu.Unlock()

	done := make(chan struct{})
	go func() {
		e.active.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		e.runCancel()
		<-done
		err = ctx.Err()
	}
	e.pool.Close()
	e.runCancel()
	return err
}

// syncGauges copies pool and cache occupancy into the registry and
// samples the Go runtime family so a metrics scrape sees current
// values.
func (e *Engine) syncGauges() {
	e.rt.Collect()
	cs := e.cache.Stats()
	e.reg.Gauge(MetricCacheBytes, "encoded bytes held by the result cache").Set(float64(cs.Bytes))
	e.reg.Gauge(MetricCacheEntries, "entries in the result cache").Set(float64(cs.Entries))
	e.reg.Gauge(MetricCacheEvicted, "entries evicted by the byte budget").Set(float64(cs.Evictions))
	// The cache's own cumulative lookup counters: unlike the
	// scm_serve_cache_{hits,misses}_total engine counters, these cover
	// every Get on the cache, whichever path issued it.
	e.reg.Gauge(MetricCacheLookups, "cumulative result-cache lookups by outcome",
		metrics.L("result", "hit")).Set(float64(cs.Hits))
	e.reg.Gauge(MetricCacheLookups, "cumulative result-cache lookups by outcome",
		metrics.L("result", "miss")).Set(float64(cs.Misses))
	e.reg.Gauge(MetricQueueDepth, "jobs queued but not yet running").Set(float64(e.pool.QueueLen()))
	e.reg.Gauge(MetricBusyWorkers, "workers currently executing a job").Set(float64(e.pool.Busy()))
	if e.opts.Journal != nil {
		js := e.opts.Journal.Stats()
		e.reg.Gauge("scm_journal_appends", "journal records appended and fsynced").Set(float64(js.Appends))
		e.reg.Gauge("scm_journal_append_errors", "journal appends refused by write errors").Set(float64(js.AppendErrors))
		e.reg.Gauge("scm_journal_sync_errors", "journal fsyncs that failed").Set(float64(js.SyncErrors))
		e.reg.Gauge("scm_journal_torn_records", "torn tail records truncated at replay").Set(float64(js.TornRecords))
		e.reg.Gauge("scm_journal_repairs", "failed appends whose unacknowledged bytes were truncated away").Set(float64(js.Repairs))
		e.reg.Gauge("scm_journal_compactions", "journal compactions, boot-time and runtime").Set(float64(js.Compactions))
		e.reg.Gauge("scm_journal_segments", "journal segments on disk").Set(float64(js.Segments))
		e.reg.Gauge("scm_journal_bytes", "journal bytes on disk").Set(float64(js.Bytes))
		e.reg.Gauge("scm_journal_live_records", "journal records a compaction keeps: live jobs' lifecycle records and newest checkpoints").Set(float64(js.LiveRecords))
		e.reg.Gauge("scm_journal_live_bytes", "journal bytes a compaction keeps").Set(float64(js.LiveBytes))
	}
}
