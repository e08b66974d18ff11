package core

import (
	"context"
	"testing"

	"shortcutmining/internal/dram"
	"shortcutmining/internal/metrics"
	"shortcutmining/internal/nn"
	"shortcutmining/internal/trace"
)

func TestLayerCycleMetricsSumToTotal(t *testing.T) {
	n := residualNet(t)
	for _, batch := range []int{1, 4} {
		cfg := smallConfig()
		cfg.Batch = batch
		reg := metrics.New()
		r, err := SimulateObservedContext(context.Background(), n, cfg, SCM, nil, reg)
		if err != nil {
			t.Fatal(err)
		}
		if got := reg.SumCounter(MetricLayerCycles); got != r.TotalCycles {
			t.Errorf("batch=%d: sum(%s) = %d, want TotalCycles %d",
				batch, MetricLayerCycles, got, r.TotalCycles)
		}
		if reg.SumCounter(MetricLayerComputeCycles) == 0 {
			t.Errorf("batch=%d: no compute cycles attributed", batch)
		}
		if r.Metrics == nil {
			t.Fatalf("batch=%d: RunStats.Metrics not embedded", batch)
		}
	}
}

// TestDRAMMetricsMatchTraffic: scm_dram_bytes_total equals
// RunStats.Traffic class by class, batch scaling and weight
// amortization included, and the burst histogram counts every
// transfer.
func TestDRAMMetricsMatchTraffic(t *testing.T) {
	net := nn.MustBuild("resnet34")
	for _, batch := range []int{1, 4} {
		for _, amortize := range []bool{false, true} {
			cfg := Default()
			cfg.Batch = batch
			cfg.AmortizeWeights = amortize
			reg := metrics.New()
			r, err := SimulateObservedContext(context.Background(), net, cfg, SCM, nil, reg)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range dram.Classes() {
				l := metrics.L("class", c.String())
				if got, want := reg.Counter(MetricDRAMBytes, "", l).Value(), r.Traffic[c]; got != want {
					t.Errorf("batch=%d amortize=%t: %s{class=%q} = %d, want Traffic %d",
						batch, amortize, MetricDRAMBytes, c, got, want)
				}
			}
			if reg.SumCounter(MetricDRAMTransfers) == 0 {
				t.Error("no transfers counted")
			}
			h := reg.Histogram(MetricDRAMBurstBytes, "", nil)
			if h.Count() != reg.SumCounter(MetricDRAMTransfers) {
				t.Errorf("burst histogram count %d != transfer count %d",
					h.Count(), reg.SumCounter(MetricDRAMTransfers))
			}
		}
	}
}

func TestProcedureCounters(t *testing.T) {
	n := residualNet(t)

	// Baseline streams every shortcut from DRAM: p3 misses, no hits.
	reg := metrics.New()
	if _, err := SimulateObservedContext(context.Background(), n, smallConfig(), Baseline, nil, reg); err != nil {
		t.Fatal(err)
	}
	p3 := metrics.L("proc", ProcRetention)
	if reg.Counter(MetricProcMisses, "", p3).Value() == 0 {
		t.Error("baseline recorded no p3 misses")
	}
	if reg.Counter(MetricProcHits, "", p3).Value() != 0 {
		t.Error("baseline recorded p3 hits")
	}

	// SCM on a fitting pool serves the shortcut and role switch on-chip.
	reg = metrics.New()
	if _, err := SimulateObservedContext(context.Background(), n, smallConfig(), SCM, nil, reg); err != nil {
		t.Fatal(err)
	}
	if reg.Counter(MetricProcHits, "", p3).Value() == 0 {
		t.Error("scm recorded no p3 hits")
	}
	if reg.Counter(MetricProcHits, "", metrics.L("proc", ProcRoleSwitch)).Value() == 0 {
		t.Error("scm recorded no p2 hits")
	}
}

func TestPoolPeakGaugeMatchesRunStats(t *testing.T) {
	n := residualNet(t)
	reg := metrics.New()
	r, err := SimulateObservedContext(context.Background(), n, smallConfig(), SCM, nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	g := reg.Gauge(MetricPoolUsedPeak, "")
	if int(g.Peak()) != r.PeakUsedBanks {
		t.Errorf("pool peak gauge = %g, want %d", g.Peak(), r.PeakUsedBanks)
	}
}

func TestTraceCycleStampsMonotone(t *testing.T) {
	n := residualNet(t)
	var buf trace.Buffer
	if _, err := SimulateObservedContext(context.Background(), n, smallConfig(), SCM, &buf, metrics.New()); err != nil {
		t.Fatal(err)
	}
	prevStart, prevEnd := int64(-1), int64(-1)
	starts, ends := 0, 0
	for _, e := range buf.Events {
		switch e.Kind {
		case trace.KindLayerStart:
			if e.Cycle < prevStart || e.Cycle < prevEnd {
				t.Fatalf("layer-start at cycle %d after end %d", e.Cycle, prevEnd)
			}
			prevStart = e.Cycle
			starts++
		case trace.KindLayerEnd:
			if e.DurCycles < 0 {
				t.Fatalf("layer-end %q with negative duration", e.Layer)
			}
			if got := e.Cycle - e.DurCycles; got != prevStart {
				t.Fatalf("layer-end %q spans [%d,%d], layer started at %d",
					e.Layer, got, e.Cycle, prevStart)
			}
			prevEnd = e.Cycle
			ends++
		}
	}
	if starts == 0 || starts != ends {
		t.Errorf("layer-start/end = %d/%d", starts, ends)
	}
}

func TestSimulateObservedNilRegistry(t *testing.T) {
	// A nil registry must behave exactly like plain Simulate.
	n := residualNet(t)
	plain, err := Simulate(n, smallConfig(), SCM, nil)
	if err != nil {
		t.Fatal(err)
	}
	observed, err := SimulateObservedContext(context.Background(), n, smallConfig(), SCM, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if observed.Metrics != nil {
		t.Error("nil registry produced a snapshot")
	}
	if observed.TotalCycles != plain.TotalCycles || observed.Traffic != plain.Traffic {
		t.Errorf("observed run diverged: %+v vs %+v", observed.TotalCycles, plain.TotalCycles)
	}
}
