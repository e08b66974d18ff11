package core

import (
	"context"
	"testing"

	"shortcutmining/internal/fault"
	"shortcutmining/internal/metrics"
	"shortcutmining/internal/nn"
	"shortcutmining/internal/sram"
	"shortcutmining/internal/trace"
)

// TestZooCompletesUnderBankFailures is the tentpole acceptance check:
// with ~25% of the pool's banks hard-failing mid-run (8 of 34, split
// across an early and a mid-network layer, fixed seed), SCM completes
// every zoo network in analytical mode, the post-run invariant and
// leak checks pass (finish() enforces them), and the feature-map
// traffic inflation stays bounded: never below the fault-free run and
// never above the conventional baseline by more than burst-rounding
// slack.
func TestZooCompletesUnderBankFailures(t *testing.T) {
	for _, name := range nn.ZooNames() {
		net := nn.MustBuild(name)
		cfg := Default()
		clean, err := Simulate(net, cfg, SCM, nil)
		if err != nil {
			t.Fatalf("%s fault-free: %v", name, err)
		}
		base, err := Simulate(net, Default(), Baseline, nil)
		if err != nil {
			t.Fatalf("%s baseline: %v", name, err)
		}
		cfg.Faults = fault.UniformBankFailures(7, 8, 2, 8)
		faulty, err := Simulate(net, cfg, SCM, nil)
		if err != nil {
			t.Fatalf("%s with 8 failed banks: %v", name, err)
		}
		if got := faulty.Faults.BankFailures; got != 8 {
			t.Errorf("%s: BankFailures = %d, want 8", name, got)
		}
		if faulty.FmapTrafficBytes() < clean.FmapTrafficBytes() {
			t.Errorf("%s: faulty traffic %d below fault-free %d",
				name, faulty.FmapTrafficBytes(), clean.FmapTrafficBytes())
		}
		if limit := base.FmapTrafficBytes() * 5 / 4; faulty.FmapTrafficBytes() > limit {
			t.Errorf("%s: faulty SCM traffic %d exceeds 1.25x baseline %d",
				name, faulty.FmapTrafficBytes(), base.FmapTrafficBytes())
		}
		if faulty.TotalCycles < clean.TotalCycles {
			t.Errorf("%s: faulty cycles %d below fault-free %d",
				name, faulty.TotalCycles, clean.TotalCycles)
		}
	}
}

// TestFunctionalBitExactUnderFaults drives real activations through
// the pool while banks fail, transients scrub, transfers drop, and
// bandwidth degrades: VerifyFunctional checks every consumption point
// against the golden reference, so a pass means graceful degradation
// never loses or misattributes a byte, under every strategy.
func TestFunctionalBitExactUnderFaults(t *testing.T) {
	spec := &fault.Spec{
		Seed:     11,
		DropProb: 0.1,
		Events: []fault.Event{
			{Kind: fault.BankFail, Layer: 2, Count: 2},
			{Kind: fault.BankTransient, Layer: 3, Count: 1},
			{Kind: fault.BandwidthDegrade, Layer: 4, Factor: 0.5},
		},
	}
	for seed := int64(1); seed <= 3; seed++ {
		net, err := nn.RandomNetwork(seed)
		if err != nil {
			t.Fatalf("RandomNetwork(%d): %v", seed, err)
		}
		for _, banks := range []int{16, 64} {
			cfg := Default()
			cfg.Pool = sram.Config{NumBanks: banks, BankBytes: 4 << 10}
			cfg.ReserveBanks = 2
			cfg.WeightBufBytes = 1 << 20
			cfg.Faults = spec
			for _, strat := range Strategies() {
				run, err := VerifyFunctional(net, cfg, strat.Features(), seed)
				if err != nil {
					t.Fatalf("seed %d banks %d %s: %v", seed, banks, strat, err)
				}
				if run.Faults.BankFailures != 2 {
					t.Errorf("seed %d banks %d %s: BankFailures = %d, want 2",
						seed, banks, strat, run.Faults.BankFailures)
				}
				if run.Faults.TransientErrors != 1 {
					t.Errorf("seed %d banks %d %s: TransientErrors = %d, want 1",
						seed, banks, strat, run.Faults.TransientErrors)
				}
			}
		}
	}
}

// TestBaselineFlatUnderBankFailures pins down E22's control arm: the
// conventional baseline never allocates pool banks, so hard bank
// failures change neither its traffic nor its cycles — only the fault
// counters move. (It has no graceful-degradation path because it has
// nothing to degrade.)
func TestBaselineFlatUnderBankFailures(t *testing.T) {
	net := nn.MustBuild("resnet18")
	cfg := Default()
	clean, err := Simulate(net, cfg, Baseline, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = fault.UniformBankFailures(3, 8, 2, 8)
	faulty, err := Simulate(net, cfg, Baseline, nil)
	if err != nil {
		t.Fatal(err)
	}
	if faulty.Traffic != clean.Traffic {
		t.Errorf("baseline traffic moved under bank failures: %v vs %v", faulty.Traffic, clean.Traffic)
	}
	if faulty.TotalCycles != clean.TotalCycles {
		t.Errorf("baseline cycles moved under bank failures: %d vs %d", faulty.TotalCycles, clean.TotalCycles)
	}
	if faulty.Faults.BankFailures != 8 {
		t.Errorf("BankFailures = %d, want 8", faulty.Faults.BankFailures)
	}
}

// TestDMARetryAccounting checks the retry contract: injected transfer
// failures cost cycles and are tallied (retries, retry bytes, backoff
// cycles), but the payload Traffic counters — the paper's headline
// metric — are identical to the fault-free run, because each byte
// still arrives exactly once.
func TestDMARetryAccounting(t *testing.T) {
	net := nn.MustBuild("resnet18")
	cfg := Default()
	clean, err := Simulate(net, cfg, SCM, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = &fault.Spec{Seed: 5, DropProb: 0.05}
	faulty, err := Simulate(net, cfg, SCM, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := faulty.Faults
	if f.DMARetries == 0 || f.DMARetryCycles == 0 || f.RetryBytes == 0 {
		t.Fatalf("expected retry activity, got %+v", f)
	}
	if faulty.Traffic != clean.Traffic {
		t.Errorf("payload traffic inflated by retries: %v vs %v", faulty.Traffic, clean.Traffic)
	}
	if faulty.TotalCycles <= clean.TotalCycles {
		t.Errorf("retries cost no cycles: %d vs %d", faulty.TotalCycles, clean.TotalCycles)
	}
}

// TestBandwidthDegradeAccounting: halving the feature-map channel from
// the first layer on stretches transfers (DegradedCycles) and the run,
// without touching traffic.
func TestBandwidthDegradeAccounting(t *testing.T) {
	net := nn.MustBuild("resnet18")
	cfg := Default()
	clean, err := Simulate(net, cfg, SCM, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = &fault.Spec{Seed: 1, Events: []fault.Event{
		{Kind: fault.BandwidthDegrade, Layer: 0, Factor: 0.5},
	}}
	faulty, err := Simulate(net, cfg, SCM, nil)
	if err != nil {
		t.Fatal(err)
	}
	if faulty.Faults.DegradedCycles == 0 {
		t.Error("DegradedCycles = 0 under bw-degrade")
	}
	if faulty.TotalCycles <= clean.TotalCycles {
		t.Errorf("degraded run not slower: %d vs %d", faulty.TotalCycles, clean.TotalCycles)
	}
	if faulty.Traffic != clean.Traffic {
		t.Errorf("bw-degrade changed traffic: %v vs %v", faulty.Traffic, clean.Traffic)
	}
}

// TestWatchdogLiveness: an absurd per-layer cycle bound trips the
// liveness checker and surfaces as a classified fatal RunError, not a
// panic.
func TestWatchdogLiveness(t *testing.T) {
	net := nn.MustBuild("resnet18")
	cfg := Default()
	cfg.WatchdogLayerCycles = 1
	_, err := Simulate(net, cfg, SCM, nil)
	re, ok := fault.AsRunError(err)
	if !ok {
		t.Fatalf("want RunError, got %v", err)
	}
	if re.Check != fault.CheckLiveness || re.Severity != fault.Fatal {
		t.Errorf("got %s/%s, want fatal/liveness", re.Severity, re.Check)
	}
}

// TestStuckProgress: a transfer-failure probability high enough to
// exhaust a two-attempt budget yields a fatal stuck-progress RunError.
func TestStuckProgress(t *testing.T) {
	net := nn.MustBuild("resnet18")
	cfg := Default()
	cfg.Faults = &fault.Spec{Seed: 9, DropProb: 0.9}
	cfg.DMAMaxAttempts = 2
	_, err := Simulate(net, cfg, SCM, nil)
	re, ok := fault.AsRunError(err)
	if !ok {
		t.Fatalf("want RunError, got %v", err)
	}
	if re.Check != fault.CheckStuckProgress || re.Severity != fault.Fatal {
		t.Errorf("got %s/%s, want fatal/stuck-progress", re.Severity, re.Check)
	}
	if re.Layer == "" {
		t.Error("stuck-progress RunError lost its layer")
	}
}

// TestCapacityExhaustionIsRecoverable: failing every bank before the
// first real layer leaves the planner nothing to work with; the run
// dies with a *recoverable* capacity RunError (the pool state is
// consistent, the plan was just unsurvivable).
func TestCapacityExhaustionIsRecoverable(t *testing.T) {
	net := nn.MustBuild("resnet18")
	cfg := Default()
	cfg.Pool = sram.Config{NumBanks: 8, BankBytes: 1 << 10}
	cfg.ReserveBanks = 2
	cfg.WeightBufBytes = 1 << 20
	cfg.Faults = &fault.Spec{Seed: 2, Events: []fault.Event{
		{Kind: fault.BankFail, Layer: 1, Count: 8},
	}}
	_, err := Simulate(net, cfg, SCM, nil)
	re, ok := fault.AsRunError(err)
	if !ok {
		t.Fatalf("want RunError, got %v", err)
	}
	if re.Check != fault.CheckCapacity || re.Severity != fault.Recoverable {
		t.Errorf("got %s/%s, want recoverable/capacity", re.Severity, re.Check)
	}
}

// TestFailBankMigrationPaths unit-tests the two migration paths of
// failBank directly: an owned bank relocates to a spare while one
// exists (same bank count, position preserved, pin intact), and spills
// its owner's tail to DRAM once the pool has no spare left.
func TestFailBankMigrationPaths(t *testing.T) {
	cfg := Default()
	cfg.Pool = sram.Config{NumBanks: 4, BankBytes: 1 << 10}
	cfg.ReserveBanks = 0
	e, err := newExecutor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.inj = fault.NewInjector(&fault.Spec{Seed: 1})
	buf, err := e.pool.Alloc(sram.RoleRetained, "victim", 2<<10) // banks 0,1
	if err != nil {
		t.Fatal(err)
	}
	if err := e.pool.Pin(buf); err != nil {
		t.Fatal(err)
	}
	e.residents = []resident{{total: buf.Bytes(), buf: buf, onChip: buf.Bytes(), live: true}}
	l := layerRef{index: 0, name: "l"}

	firstBank := buf.Banks()[0]
	if err := e.failBank(l, firstBank); err != nil {
		t.Fatalf("relocation path: %v", err)
	}
	if e.flt.Relocations != 1 {
		t.Fatalf("Relocations = %d, want 1", e.flt.Relocations)
	}
	if buf.NumBanks() != 2 || buf.Banks()[0] == firstBank {
		t.Fatalf("relocation left banks %v (failed bank %d)", buf.Banks(), firstBank)
	}
	if !buf.Pinned() {
		t.Error("relocation lost the pin")
	}

	// Retire the remaining free banks so the next failure has no spare.
	for e.pool.FreeBanks() > 0 {
		free := -1
		for b := 0; b < cfg.Pool.NumBanks; b++ {
			if !e.pool.IsFailed(b) && e.pool.Owner(b) == nil {
				free = b
				break
			}
		}
		if err := e.failBank(l, free); err != nil {
			t.Fatalf("retiring free bank %d: %v", free, err)
		}
	}
	tail := buf.Banks()[1]
	if err := e.failBank(l, tail); err != nil {
		t.Fatalf("spill path: %v", err)
	}
	if e.flt.FaultSpillBytes != 1<<10 {
		t.Errorf("FaultSpillBytes = %d, want %d", e.flt.FaultSpillBytes, 1<<10)
	}
	if buf.NumBanks() != 1 {
		t.Errorf("spill left %d banks, want 1", buf.NumBanks())
	}
	if got := e.residents[0].onChip; got != 1<<10 {
		t.Errorf("resident onChip = %d, want %d", got, 1<<10)
	}
	if err := e.pool.CheckInvariants(); err != nil {
		t.Errorf("pool invariants after migrations: %v", err)
	}
}

// TestFaultMetricsAndTrace checks the observability wiring: an
// observed faulty run lands fault counters in the metrics registry and
// fault/retry events in the trace buffer.
func TestFaultMetricsAndTrace(t *testing.T) {
	net := nn.MustBuild("resnet18")
	cfg := Default()
	cfg.Faults = faultMetricsSpec()
	reg := metrics.New()
	var buf trace.Buffer
	run, err := SimulateObservedContext(context.Background(), net, cfg, SCM, &buf, reg)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(MetricFaultsInjected, "", metrics.L("kind", FaultBankFail)).Value(); got != 4 {
		t.Errorf("bank-fail counter = %d, want 4", got)
	}
	if got := reg.Counter(MetricFaultsInjected, "", metrics.L("kind", FaultBankTransient)).Value(); got != 2 {
		t.Errorf("bank-transient counter = %d, want 2", got)
	}
	if reg.Counter(MetricDMARetries, "").Value() != run.Faults.DMARetries {
		t.Errorf("retry counter %d != RunStats %d",
			reg.Counter(MetricDMARetries, "").Value(), run.Faults.DMARetries)
	}
	if run.Faults.DMARetries == 0 {
		t.Error("no retries at DropProb 0.05 over a resnet18 run")
	}
	if reg.Gauge(MetricPoolFailedBanks, "").Value() != 4 {
		t.Errorf("failed-banks gauge = %g, want 4", reg.Gauge(MetricPoolFailedBanks, "").Value())
	}
	if reg.Gauge(MetricBandwidthFactor, "").Value() != 0.75 {
		t.Errorf("bw-factor gauge = %g, want 0.75", reg.Gauge(MetricBandwidthFactor, "").Value())
	}
	if len(buf.OfKind(trace.KindFault)) == 0 {
		t.Error("no fault events in trace")
	}
	if len(buf.OfKind(trace.KindRetry)) == 0 {
		t.Error("no retry events in trace")
	}
	if run.Metrics == nil {
		t.Error("RunStats.Metrics snapshot missing")
	}
	if !run.Faults.Any() {
		t.Error("FaultStats.Any() = false on a faulty run")
	}
}

// TestValidateFaultKnobs: Config.Validate rejects the malformed fault
// and robustness knobs.
func TestValidateFaultKnobs(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.DMAMaxAttempts = -1 },
		func(c *Config) { c.DMABackoffCycles = -8 },
		func(c *Config) { c.WatchdogLayerCycles = -1 },
		func(c *Config) { c.Faults = &fault.Spec{DropProb: 1.5} },
		func(c *Config) { c.Faults = &fault.Spec{Events: []fault.Event{{Kind: fault.BankFail, Layer: -1}}} },
		func(c *Config) { c.DType = 99 },
	}
	for i, mutate := range bad {
		cfg := Default()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted a bad config", i)
		}
	}
}
