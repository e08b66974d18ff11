package core_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"shortcutmining/internal/core"
	"shortcutmining/internal/metrics"
	"shortcutmining/internal/nn"
)

// maxAllocsPerLayer bounds the per-layer allocation budget of the
// Simulate hot path. The measured baseline is ~1.0 to ~1.3 allocations
// per layer at every bank size from 4 to 32 KiB: one logical-buffer
// header per retained output plus a handful of per-run arrays (it was
// 2.6 to 3.9 while every buffer carried its own bank slice and every
// feature map its own heap record, and 7 to 9 while every run rebuilt
// the network's consumption plan). Per-bank pool moves (growing an
// output, recycling or evicting one bank) allocate nothing, so the
// count does not grow as banks shrink. An allocation per layer, per
// bank move, per tile or per cycle, or a per-run plan rebuild, fails.
const maxAllocsPerLayer = 2.0

// TestSimulateAllocsPerLayer guards the throughput of every caller of
// the layer loop (sweeps, serving, scheduling): it must stay
// allocation-light at the calibrated platform and at small-bank design
// points, where P4 recycling moves hundreds of banks one at a time.
func TestSimulateAllocsPerLayer(t *testing.T) {
	smallBanks := core.Default()
	smallBanks.Pool.NumBanks = 256
	smallBanks.Pool.BankBytes = 4 << 10
	for _, tc := range []struct {
		net      string
		cfg      core.Config
		observed bool
		budget   float64
	}{
		{"densechain", core.Default(), false, maxAllocsPerLayer},
		{"resnet34", core.Default(), false, maxAllocsPerLayer},
		{"resnet34", smallBanks, false, maxAllocsPerLayer},
		{"resnet152", smallBanks, false, maxAllocsPerLayer},
		// Observed runs, each with a fresh registry: most of their cost
		// is the per-layer cycle series written at finish. Bounded by
		// the allocations per layer measured before the fault, pool and
		// DRAM-byte counts moved to finish (12.2 and 8.3), rounded up.
		{"resnet34", core.Default(), true, 13},
		{"densenet121", core.Default(), true, 9},
	} {
		net, err := nn.Build(tc.net)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%s@%dx%dKiB", tc.net, tc.cfg.Pool.NumBanks, tc.cfg.Pool.BankBytes>>10)
		if tc.observed {
			name += " observed"
		}
		layers := 0
		run := func() {
			var reg *metrics.Registry
			if tc.observed {
				reg = metrics.New()
			}
			res, err := core.SimulateObservedContext(context.Background(), net, tc.cfg, core.SCM, nil, reg)
			if err != nil {
				t.Fatal(err)
			}
			layers = len(res.Layers)
		}
		allocs := testing.AllocsPerRun(10, run)
		if layers == 0 {
			t.Fatalf("%s: no layers simulated", name)
		}
		perLayer := allocs / float64(layers)
		t.Logf("%s: %.0f allocs over %d layers = %.2f per layer (budget %.0f), %.0f bytes per layer",
			name, allocs, layers, perLayer, tc.budget, bytesPerRun(10, run)/float64(layers))
		if perLayer > tc.budget {
			t.Errorf("%s: %.1f allocs per layer exceeds the %.0f budget — something in the layer loop started allocating",
				name, perLayer, tc.budget)
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the average heap bytes
// one call of f allocates.
func bytesPerRun(runs int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
