package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"shortcutmining/internal/metrics"
	"shortcutmining/internal/nn"
	"shortcutmining/internal/stats"
	"shortcutmining/internal/trace"
)

func TestSimulateContextCanceled(t *testing.T) {
	net := nn.MustResNet(18)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SimulateContext(ctx, net, Default(), SCM, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSimulateContextDeadline(t *testing.T) {
	net := nn.MustResNet(18)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := SimulateContext(ctx, net, Default(), SCM, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// cancelAfter cancels its context after n recorded layer-start events,
// so cancellation lands mid-run at a deterministic layer boundary.
type cancelAfter struct {
	cancel context.CancelFunc
	left   int
}

func (c *cancelAfter) Record(ev trace.Event) {
	if ev.Kind == trace.KindLayerStart {
		c.left--
		if c.left == 0 {
			c.cancel()
		}
	}
}

func TestSimulateContextCancelMidRun(t *testing.T) {
	net := nn.MustResNet(34)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := SimulateContext(ctx, net, Default(), SCM, &cancelAfter{cancel: cancel, left: 5})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSimulateContextNilAndBackground(t *testing.T) {
	net := nn.MustResNet(18)
	want, err := Simulate(net, Default(), SCM, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SimulateContext(nil, net, Default(), SCM, nil) //lint:ignore SA1012 nil ctx tolerated by design
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("nil-context run differs from background-context run")
	}
}

// TestConcurrentSimulateDeterministic runs the same network/config on
// many goroutines at once and requires bit-identical RunStats — the
// guard against hidden shared state that the serving subsystem's
// worker pool depends on.
func TestConcurrentSimulateDeterministic(t *testing.T) {
	net := nn.MustResNet(34)
	cfg := Default()
	want, err := SimulateObservedContext(context.Background(), net, cfg, SCM, nil, metrics.New())
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	got := make([]stats.RunStats, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			// Per-run registry isolation: each goroutine observes into
			// its own registry, the pattern the serve engine enforces.
			got[w], errs[w] = SimulateObservedContext(context.Background(), net, cfg, SCM, nil, metrics.New())
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if !reflect.DeepEqual(want, got[w]) {
			t.Fatalf("worker %d produced different RunStats than the serial run", w)
		}
	}
}
