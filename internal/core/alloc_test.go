package core_test

import (
	"fmt"
	"runtime"
	"testing"

	"shortcutmining/internal/core"
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
		net string
		cfg core.Config
	}{
		{"densechain", core.Default()},
		{"resnet34", core.Default()},
		{"resnet34", smallBanks},
		{"resnet152", smallBanks},
	} {
		net, err := nn.Build(tc.net)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%s@%dx%dKiB", tc.net, tc.cfg.Pool.NumBanks, tc.cfg.Pool.BankBytes>>10)
		layers := 0
		run := func() {
			res, err := core.Simulate(net, tc.cfg, core.SCM, nil)
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
		t.Logf("%s: %.0f allocs over %d layers = %.1f per layer (budget %.0f), %.0f bytes per layer",
			name, allocs, layers, perLayer, maxAllocsPerLayer, bytesPerRun(10, run)/float64(layers))
		if perLayer > maxAllocsPerLayer {
			t.Errorf("%s: %.1f allocs per layer exceeds the %.0f budget — something in the layer loop started allocating",
				name, perLayer, maxAllocsPerLayer)
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
