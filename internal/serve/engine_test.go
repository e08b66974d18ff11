package serve

import (
	"context"
	"errors"
	"math"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shortcutmining/internal/core"
	"shortcutmining/internal/nn"
	"shortcutmining/internal/stats"
)

// waitUntil polls cond for up to two seconds; test helpers coordinating
// with pool goroutines cannot use bare sleeps.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// engineRequest returns a request whose key differs per batch size.
func engineRequest(t *testing.T, batch int) Request {
	t.Helper()
	net, err := nn.Build("resnet18")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Default()
	cfg.Batch = batch
	return Request{Net: net, Cfg: cfg, Strategy: core.SCM}
}

// TestSimulateWarmCacheHit is the acceptance check: a repeated request
// is served from the cache without re-running the simulator, observable
// through the hit/miss counters.
func TestSimulateWarmCacheHit(t *testing.T) {
	e := NewEngine(Options{Workers: 2})
	defer e.Drain(context.Background())

	req := engineRequest(t, 1)
	first, cached, err := e.Simulate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("first call reported cached")
	}
	if e.mCacheMisses.Value() != 1 || e.mCacheHits.Value() != 0 {
		t.Fatalf("after miss: misses=%d hits=%d", e.mCacheMisses.Value(), e.mCacheHits.Value())
	}

	second, cached, err := e.Simulate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Error("second call not served from cache")
	}
	if e.mCacheMisses.Value() != 1 {
		t.Errorf("misses = %d after warm hit, want 1 (simulator re-ran)", e.mCacheMisses.Value())
	}
	if e.mCacheHits.Value() != 1 {
		t.Errorf("hits = %d, want 1", e.mCacheHits.Value())
	}
	if second.TotalCycles != first.TotalCycles || second.Network != first.Network {
		t.Errorf("cached result differs: %+v vs %+v", second, first)
	}
}

// TestSimulateSingleFlight: N identical concurrent requests share one
// execution; the joiners never reach the worker pool.
func TestSimulateSingleFlight(t *testing.T) {
	const joiners = 7

	var runs atomic.Int64
	release := make(chan struct{})
	e := NewEngine(Options{Workers: 2})
	defer e.Drain(context.Background())
	e.simFn = func(ctx context.Context, req Request) (stats.RunStats, error) {
		runs.Add(1)
		select {
		case <-release:
			return stats.RunStats{Network: "fake", TotalCycles: 42}, nil
		case <-ctx.Done():
			return stats.RunStats{}, ctx.Err()
		}
	}

	req := engineRequest(t, 1)
	var wg sync.WaitGroup
	results := make([]stats.RunStats, joiners+1)
	errs := make([]error, joiners+1)
	for i := 0; i <= joiners; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _, errs[i] = e.Simulate(context.Background(), req)
		}(i)
	}
	waitUntil(t, "leader to start", func() bool { return runs.Load() == 1 })
	waitUntil(t, "joiners to register", func() bool { return e.mDedup.Value() == joiners })
	close(release)
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Errorf("simulator ran %d times, want 1", got)
	}
	if e.mCacheMisses.Value() != 1 {
		t.Errorf("misses = %d, want 1", e.mCacheMisses.Value())
	}
	for i := 0; i <= joiners; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if results[i].TotalCycles != 42 {
			t.Errorf("caller %d got %+v", i, results[i])
		}
	}
}

// TestSimulateQueueFull: with one busy worker and a one-deep queue, a
// third distinct request is rejected with ErrBusy.
func TestSimulateQueueFull(t *testing.T) {
	release := make(chan struct{})
	e := NewEngine(Options{Workers: 1, QueueDepth: 1})
	defer func() {
		close(release)
		e.Drain(context.Background())
	}()
	e.simFn = func(ctx context.Context, req Request) (stats.RunStats, error) {
		select {
		case <-release:
			return stats.RunStats{}, nil
		case <-ctx.Done():
			return stats.RunStats{}, ctx.Err()
		}
	}

	// Submit sequentially: the queue slot only frees once the worker
	// has dequeued the previous task, so waiting between submissions
	// keeps admission deterministic.
	go e.Simulate(context.Background(), engineRequest(t, 1)) //nolint:errcheck
	waitUntil(t, "worker busy", func() bool { return e.pool.Busy() == 1 })
	go e.Simulate(context.Background(), engineRequest(t, 2)) //nolint:errcheck
	waitUntil(t, "queue full", func() bool { return e.pool.QueueLen() == 1 })

	_, _, err := e.Simulate(context.Background(), engineRequest(t, 3))
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("err = %v, want ErrBusy", err)
	}
	if e.mRejected.Value() != 1 {
		t.Errorf("rejected = %d, want 1", e.mRejected.Value())
	}
}

// TestSimulateCallerTimeout: the caller's context bounds only its wait;
// the admitted execution finishes and lands in the cache.
func TestSimulateCallerTimeout(t *testing.T) {
	release := make(chan struct{})
	e := NewEngine(Options{Workers: 1})
	defer e.Drain(context.Background())
	e.simFn = func(ctx context.Context, req Request) (stats.RunStats, error) {
		select {
		case <-release:
			return stats.RunStats{Network: "fake"}, nil
		case <-ctx.Done():
			return stats.RunStats{}, ctx.Err()
		}
	}

	req := engineRequest(t, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, _, err := e.Simulate(ctx, req)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}

	close(release) // abandoned execution completes and is cached
	waitUntil(t, "abandoned result to reach the cache", func() bool {
		_, ok := e.cache.Get(req.mustKey(t))
		return ok
	})
	res, cached, err := e.Simulate(context.Background(), req)
	if err != nil || !cached || res.Network != "fake" {
		t.Errorf("follow-up = %+v cached=%v err=%v, want cached fake result", res, cached, err)
	}
}

// mustKey is a test convenience.
func (r Request) mustKey(t *testing.T) Key {
	t.Helper()
	k, err := RequestKey(r)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestSubmitSimulateAsync: async jobs reach a terminal state, report
// results through View, and reuse the cache on resubmission.
func TestSubmitSimulateAsync(t *testing.T) {
	e := NewEngine(Options{Workers: 2})
	defer e.Drain(context.Background())
	e.simFn = func(ctx context.Context, req Request) (stats.RunStats, error) {
		return stats.RunStats{Network: "fake", TotalCycles: 7}, nil
	}

	req := engineRequest(t, 1)
	j, err := e.SubmitSimulate(req)
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	v := j.View()
	if v.State != JobDone || v.Cached || v.Stats == nil || v.Stats.TotalCycles != 7 {
		t.Fatalf("first job view = %+v", v)
	}
	if got, ok := e.Job(j.ID()); !ok || got != j {
		t.Error("job not retrievable by id")
	}

	j2, err := e.SubmitSimulate(req)
	if err != nil {
		t.Fatal(err)
	}
	<-j2.Done()
	if v := j2.View(); v.State != JobDone || !v.Cached {
		t.Errorf("resubmitted job view = %+v, want cached", v)
	}
}

// TestSubmitSimulateUnkeyableIsInvalid: a simulate request RequestKey
// refuses fails at submit as a bad request (HTTP 400), and no job is
// registered for it.
func TestSubmitSimulateUnkeyableIsInvalid(t *testing.T) {
	e := NewEngine(Options{Workers: 1})
	defer e.Drain(context.Background())
	nanCfg := core.Default()
	nanCfg.WeightBandwidthGBps = math.NaN()
	for name, req := range map[string]Request{
		"no network":    {Cfg: core.Default()},
		"NaN in config": {Net: nn.MustBuild("densechain"), Cfg: nanCfg},
	} {
		if _, err := RequestKey(req); err == nil {
			t.Fatalf("%s: RequestKey accepted the request", name)
		}
		j, err := e.SubmitSimulate(req)
		if j != nil || !errors.As(err, new(invalidError)) || statusFor(err) != http.StatusBadRequest {
			t.Errorf("%s: SubmitSimulate = %v, %v (status %d); want an invalidError, HTTP 400", name, j, err, statusFor(err))
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if n := len(e.jobOrder); n != 0 {
		t.Errorf("%d jobs registered for refused requests", n)
	}
}

// TestDrainRefusesAndCancels: drain refuses new work, and an expired
// drain context cancels stragglers via the engine run context.
func TestDrainRefusesAndCancels(t *testing.T) {
	started := make(chan struct{})
	e := NewEngine(Options{Workers: 1})
	e.simFn = func(ctx context.Context, req Request) (stats.RunStats, error) {
		close(started)
		<-ctx.Done() // never finishes voluntarily
		return stats.RunStats{}, ctx.Err()
	}

	var jobErr error
	done := make(chan struct{})
	go func() {
		_, _, jobErr = e.Simulate(context.Background(), engineRequest(t, 1))
		close(done)
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := e.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Drain = %v, want DeadlineExceeded (forced cancellation)", err)
	}
	<-done
	if !errors.Is(jobErr, context.Canceled) {
		t.Errorf("straggler err = %v, want Canceled", jobErr)
	}

	if _, _, err := e.Simulate(context.Background(), engineRequest(t, 2)); !errors.Is(err, ErrDraining) {
		t.Errorf("post-drain Simulate = %v, want ErrDraining", err)
	}
	if _, err := e.SubmitSimulate(engineRequest(t, 3)); !errors.Is(err, ErrDraining) {
		t.Errorf("post-drain SubmitSimulate = %v, want ErrDraining", err)
	}
}

// TestJobHistoryPruned: finished jobs beyond MaxJobs are evicted from
// the lookup table, oldest first.
func TestJobHistoryPruned(t *testing.T) {
	e := NewEngine(Options{Workers: 1, MaxJobs: 2})
	defer e.Drain(context.Background())
	e.simFn = func(ctx context.Context, req Request) (stats.RunStats, error) {
		return stats.RunStats{}, nil
	}

	var ids []string
	for i := 1; i <= 4; i++ {
		j, err := e.SubmitSimulate(engineRequest(t, i))
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		ids = append(ids, j.ID())
	}
	// Submitting job 4 prunes down to MaxJobs=2: jobs 1 and 2 go.
	if _, ok := e.Job(ids[0]); ok {
		t.Error("oldest job survived pruning")
	}
	if _, ok := e.Job(ids[3]); !ok {
		t.Error("newest job pruned")
	}
}
