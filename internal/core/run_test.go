package core

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"shortcutmining/internal/fault"
	"shortcutmining/internal/metrics"
	"shortcutmining/internal/nn"
	"shortcutmining/internal/stats"
)

// runJSON compares RunStats via their JSON form so every exported
// field (including nested traffic and energy) participates.
func runJSON(t *testing.T, r stats.RunStats) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}

// TestRunStepMatchesSimulate pins the one-constructor contract:
// stepping a NewRun to completion produces RunStats equal to every
// other entry point's, for every strategy on a residual and a concat
// network, clean, faulty and compressed. Observed runs match once
// their Metrics snapshot is cleared; a mid-run Snapshot/RestoreRun
// matches wherever the run can be snapshotted (not under faults).
func TestRunStepMatchesSimulate(t *testing.T) {
	ctx := context.Background()
	faulty := Default()
	faulty.Faults = fault.UniformBankFailures(7, 8, 2, 8)
	cases := []struct {
		name string
		net  *nn.Network
		cfg  Config
	}{
		{"residual", nn.MustBuild("resnet18"), Default()},
		{"concat", nn.MustBuild("squeezenet-bypass"), Default()},
		{"faulty", nn.MustBuild("resnet18"), faulty},
		{"compressed", nn.MustBuild("squeezenet-bypass"), compressedDefault(t)},
	}
	for _, tc := range cases {
		for _, strat := range Strategies() {
			net, cfg := tc.net, tc.cfg
			r, err := NewRun(net, cfg, strat, nil, nil)
			if err != nil {
				t.Fatalf("%s/%s: NewRun: %v", tc.name, strat, err)
			}
			steps := 0
			for done := false; !done; steps++ {
				done, err = r.Step(ctx)
				if err != nil {
					t.Fatalf("%s/%s: step %d: %v", tc.name, strat, steps, err)
				}
			}
			if steps != r.NumLayers() {
				t.Errorf("%s/%s: %d steps, want %d (one per layer)", tc.name, strat, steps, r.NumLayers())
			}
			want, err := r.Result()
			if err != nil {
				t.Fatalf("%s/%s: Result: %v", tc.name, strat, err)
			}
			if sc := r.Sched(); sc != (SchedStats{}) {
				t.Errorf("%s/%s: uninterrupted run has nonzero SchedStats %+v", tc.name, strat, sc)
			}
			if want.Strategy != strat.String() {
				t.Errorf("%s/%s: stepped run labelled %q", tc.name, strat, want.Strategy)
			}

			type entry struct {
				name string
				run  func() (stats.RunStats, error)
			}
			entries := []entry{
				{"Simulate", func() (stats.RunStats, error) { return Simulate(net, cfg, strat, nil) }},
				{"SimulateContext", func() (stats.RunStats, error) { return SimulateContext(ctx, net, cfg, strat, nil) }},
				{"SimulateObservedContext/nil", func() (stats.RunStats, error) {
					return SimulateObservedContext(ctx, net, cfg, strat, nil, nil)
				}},
				{"SimulateObservedContext/registry", func() (stats.RunStats, error) {
					got, err := SimulateObservedContext(ctx, net, cfg, strat, nil, metrics.New())
					if err == nil && got.Metrics == nil {
						t.Errorf("%s/%s: observed run carries no Metrics", tc.name, strat)
					}
					got.Metrics = nil
					return got, err
				}},
				{"SimulateFeatures", func() (stats.RunStats, error) { return SimulateFeatures(net, cfg, strat.Features(), nil) }},
			}
			if cfg.Faults.Empty() {
				entries = append(entries, entry{"Snapshot/RestoreRun", func() (stats.RunStats, error) {
					r, err := NewRun(net, cfg, strat, nil, nil)
					if err != nil {
						return stats.RunStats{}, err
					}
					for r.NextLayer() < r.NumLayers()/2 {
						if _, err := r.Step(ctx); err != nil {
							return stats.RunStats{}, err
						}
					}
					if _, err := r.Suspend(); err != nil {
						return stats.RunStats{}, err
					}
					snap, err := r.Snapshot(0)
					if err != nil {
						return stats.RunStats{}, err
					}
					if r, err = RestoreRun(net, cfg, snap); err != nil {
						return stats.RunStats{}, err
					}
					return r.complete(ctx)
				}})
			}
			for _, en := range entries {
				got, err := en.run()
				if err != nil {
					t.Errorf("%s/%s: %s: %v", tc.name, strat, en.name, err)
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s: %s diverged from NewRun+Step\n got %s\nwant %s",
						tc.name, strat, en.name, runJSON(t, got), runJSON(t, want))
				}
			}
		}
	}
}

// TestUnknownStrategyRejected: a Strategy value outside Strategies is
// an error at every strategy entry point, never a silent baseline run.
func TestUnknownStrategyRejected(t *testing.T) {
	net := residualNet(t)
	cfg := smallConfig()
	ctx := context.Background()
	entries := []struct {
		name string
		run  func(Strategy) error
	}{
		{"Simulate", func(s Strategy) error { _, err := Simulate(net, cfg, s, nil); return err }},
		{"SimulateContext", func(s Strategy) error { _, err := SimulateContext(ctx, net, cfg, s, nil); return err }},
		{"SimulateObservedContext", func(s Strategy) error {
			_, err := SimulateObservedContext(ctx, net, cfg, s, nil, metrics.New())
			return err
		}},
		{"NewRun", func(s Strategy) error { _, err := NewRun(net, cfg, s, nil, nil); return err }},
	}
	for _, s := range []Strategy{-1, 3, 7} {
		for _, en := range entries {
			if err := en.run(s); err == nil || !strings.Contains(err.Error(), "unknown strategy") {
				t.Errorf("%s(%v) = %v, want an unknown-strategy error", en.name, s, err)
			}
		}
	}
}

// TestUnbuiltNetworkRejected feeds every network entry point a nil,
// a zero, and a hand-assembled network: none carries the plan
// nn.Builder.Finish computes, so each gets nn.ErrUnbuilt, not a panic.
func TestUnbuiltNetworkRejected(t *testing.T) {
	built := residualNet(t)
	cfg := smallConfig()
	snap := func() *RunSnapshot {
		r, err := NewRun(built, cfg, SCM, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Suspend(); err != nil {
			t.Fatal(err)
		}
		s, err := r.Snapshot(0)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}()
	for _, tc := range []struct {
		name string
		net  *nn.Network
	}{
		{"nil", nil},
		{"zero", &nn.Network{}},
		{"hand-assembled", &nn.Network{Name: built.Name, InputShape: built.InputShape, Layers: built.Layers}},
	} {
		entries := []struct {
			name string
			run  func() error
		}{
			{"Simulate", func() error { _, err := Simulate(tc.net, cfg, SCM, nil); return err }},
			{"NewRun", func() error { _, err := NewRun(tc.net, cfg, SCM, nil, nil); return err }},
			{"SimulateFeatures", func() error { _, err := SimulateFeatures(tc.net, cfg, SCM.Features(), nil); return err }},
			{"VerifyFunctional", func() error { _, err := VerifyFunctional(tc.net, cfg, SCM.Features(), 1); return err }},
			{"RestoreRun", func() error { _, err := RestoreRun(tc.net, cfg, snap); return err }},
		}
		for _, en := range entries {
			err := en.run()
			if tc.net == nil && en.name == "RestoreRun" {
				if err == nil || !strings.Contains(err.Error(), "needs a network") {
					t.Errorf("%s(%s) = %v, want a needs-a-network error", en.name, tc.name, err)
				}
				continue
			}
			if !errors.Is(err, nn.ErrUnbuilt) {
				t.Errorf("%s(%s) = %v, want nn.ErrUnbuilt", en.name, tc.name, err)
			}
		}
	}
}

// TestSuspendResumeBitIdentical suspends and resumes at every layer
// boundary of a run: the final RunStats must still be bit-identical to
// the uninterrupted simulation, with every multi-tenancy cost isolated
// in SchedStats.
func TestSuspendResumeBitIdentical(t *testing.T) {
	net := nn.MustBuild("squeezenet-bypass")
	cfg := Default()
	for _, strat := range Strategies() {
		want, err := Simulate(net, cfg, strat, nil)
		if err != nil {
			t.Fatalf("%s: Simulate: %v", strat, err)
		}
		r, err := NewRun(net, cfg, strat, nil, nil)
		if err != nil {
			t.Fatalf("%s: NewRun: %v", strat, err)
		}
		for done := false; !done; {
			done, err = r.Step(context.Background())
			if err != nil {
				t.Fatalf("%s: step: %v", strat, err)
			}
			if !done {
				fp, err := r.Suspend()
				if err != nil {
					t.Fatalf("%s: suspend at layer %d: %v", strat, r.NextLayer(), err)
				}
				if after := r.Footprint(); after.UsedBanks != 0 {
					t.Fatalf("%s: %d banks occupied after suspend (was %d)", strat, after.UsedBanks, fp.UsedBanks)
				}
				// Step auto-resumes; no explicit Resume needed.
			}
		}
		got, err := r.Result()
		if err != nil {
			t.Fatalf("%s: Result: %v", strat, err)
		}
		if g, w := runJSON(t, got), runJSON(t, want); g != w {
			t.Errorf("%s: suspend/resume changed RunStats\n got %s\nwant %s", strat, g, w)
		}
		sc := r.Sched()
		if sc.Suspends == 0 || sc.Resumes != sc.Suspends {
			t.Errorf("%s: suspend/resume ledger inconsistent: %+v", strat, sc)
		}
		if strat == Baseline {
			// Baseline retains nothing across layer boundaries, so
			// vacating the pool there is free.
			if sc.SpillBytes != 0 || sc.ReloadBytes != 0 {
				t.Errorf("baseline: expected free suspends, got %+v", sc)
			}
		} else {
			if sc.SpillBytes == 0 || sc.ReloadBytes == 0 {
				t.Errorf("%s: expected nonzero spill/reload traffic, got %+v", strat, sc)
			}
			if sc.SpillCycles == 0 || sc.ReloadCycles == 0 {
				t.Errorf("%s: expected nonzero spill/reload cycles, got %+v", strat, sc)
			}
		}
	}
}

// TestSuspendExplicitResume exercises the explicit Resume path (the
// scheduler lets Step auto-resume, but Resume is public API).
func TestSuspendExplicitResume(t *testing.T) {
	net := nn.MustBuild("densechain")
	cfg := Default()
	want, err := Simulate(net, cfg, SCM, nil)
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	r, err := NewRun(net, cfg, SCM, nil, nil)
	if err != nil {
		t.Fatalf("NewRun: %v", err)
	}
	if _, err := r.Step(context.Background()); err != nil {
		t.Fatalf("step: %v", err)
	}
	if _, err := r.Suspend(); err != nil {
		t.Fatalf("suspend: %v", err)
	}
	if !r.Suspended() {
		t.Fatal("run not marked suspended")
	}
	if err := r.Resume(); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if r.Suspended() {
		t.Fatal("run still marked suspended after Resume")
	}
	for done := false; !done; {
		if done, err = r.Step(context.Background()); err != nil {
			t.Fatalf("step: %v", err)
		}
	}
	got, err := r.Result()
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if g, w := runJSON(t, got), runJSON(t, want); g != w {
		t.Errorf("explicit resume changed RunStats\n got %s\nwant %s", g, w)
	}
}

// TestRunStateErrors pins the API's refusal cases.
func TestRunStateErrors(t *testing.T) {
	net := nn.MustBuild("densechain")
	r, err := NewRun(net, Default(), SCM, nil, nil)
	if err != nil {
		t.Fatalf("NewRun: %v", err)
	}
	if _, err := r.Result(); err == nil {
		t.Error("Result before Done: want error")
	}
	if err := r.Resume(); err == nil {
		t.Error("Resume while not suspended: want error")
	}
	if _, err := r.Step(context.Background()); err != nil {
		t.Fatalf("step: %v", err)
	}
	if _, err := r.Suspend(); err != nil {
		t.Fatalf("suspend: %v", err)
	}
	if _, err := r.Suspend(); err == nil {
		t.Error("double Suspend: want error")
	}
	for done := false; !done; {
		if done, err = r.Step(context.Background()); err != nil {
			t.Fatalf("step: %v", err)
		}
	}
	if _, err := r.Suspend(); err == nil {
		t.Error("Suspend after Done: want error")
	}
	if done, err := r.Step(context.Background()); !done || err != nil {
		t.Errorf("Step after Done: got (%v, %v), want (true, nil)", done, err)
	}
}

// TestRunCancel verifies cooperative cancellation parks the run in a
// terminal error state.
func TestRunCancel(t *testing.T) {
	r, err := NewRun(nn.MustBuild("densechain"), Default(), SCM, nil, nil)
	if err != nil {
		t.Fatalf("NewRun: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Step(ctx); err == nil {
		t.Fatal("Step with canceled ctx: want error")
	}
	if r.Err() == nil {
		t.Fatal("run not terminal after cancellation")
	}
	if _, err := r.Step(context.Background()); err == nil {
		t.Fatal("Step after terminal error: want the same error")
	}
}

// TestRunFootprint checks the mid-run occupancy view is live.
func TestRunFootprint(t *testing.T) {
	r, err := NewRun(nn.MustBuild("resnet18"), Default(), SCM, nil, nil)
	if err != nil {
		t.Fatalf("NewRun: %v", err)
	}
	if fp := r.Footprint(); fp.UsedBanks != 0 || fp.ResidentBytes != 0 {
		t.Errorf("fresh run has footprint %+v", fp)
	}
	// Retention is data-dependent: step until the run holds live
	// buffers at a boundary (SCM must retain at some point).
	sawResident := false
	for done := false; !done && !sawResident; {
		var err error
		if done, err = r.Step(context.Background()); err != nil {
			t.Fatalf("step: %v", err)
		}
		if fp := r.Footprint(); fp.UsedBanks > 0 && fp.ResidentBytes > 0 {
			sawResident = true
		}
	}
	if !sawResident {
		t.Error("SCM run never held a resident buffer at any layer boundary")
	}
	if r.MinBankDemand() != Default().ReserveBanks+1 {
		t.Errorf("MinBankDemand = %d, want %d", r.MinBankDemand(), Default().ReserveBanks+1)
	}
}
