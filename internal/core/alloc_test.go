package core_test

import (
	"fmt"
	"testing"

	"shortcutmining/internal/core"
	"shortcutmining/internal/nn"
)

// maxAllocsPerLayer bounds the per-layer allocation budget of the
// Simulate hot path. The measured baseline is ~2.6 to ~3.9 allocations
// per layer at every bank size from 4 to 32 KiB (it was 7 to 9 while
// every run rebuilt the network's consumption plan) — per-bank pool
// moves (growing an output, recycling or evicting one bank) allocate
// nothing, so the count does not grow as banks shrink. The cap leaves
// headroom for ordinary refactors while an allocation per bank move
// (tens to hundreds per layer at 4 KiB banks), per tile, per cycle, or
// a per-run plan rebuild fails immediately.
const maxAllocsPerLayer = 5.0

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
		allocs := testing.AllocsPerRun(10, func() {
			res, err := core.Simulate(net, tc.cfg, core.SCM, nil)
			if err != nil {
				t.Fatal(err)
			}
			layers = len(res.Layers)
		})
		if layers == 0 {
			t.Fatalf("%s: no layers simulated", name)
		}
		perLayer := allocs / float64(layers)
		t.Logf("%s: %.0f allocs over %d layers = %.1f per layer (budget %.0f)",
			name, allocs, layers, perLayer, maxAllocsPerLayer)
		if perLayer > maxAllocsPerLayer {
			t.Errorf("%s: %.1f allocs per layer exceeds the %.0f budget — something in the layer loop started allocating",
				name, perLayer, maxAllocsPerLayer)
		}
	}
}
