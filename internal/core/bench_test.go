package core_test

import (
	"testing"

	"shortcutmining/internal/core"
	"shortcutmining/internal/nn"
)

// sweepPairs are the (network, strategy) pairs of the repo benchmark's
// sim-sweep workload; between them the networks cover every layer kind.
var sweepPairs = []struct {
	net   string
	strat core.Strategy
}{
	{"densechain", core.SCM},
	{"squeezenet", core.SCM},
	{"squeezenet-bypass", core.SCM},
	{"resnet18", core.SCM},
	{"resnet34", core.Baseline},
	{"resnet34", core.FMReuse},
	{"resnet34", core.SCM},
	{"resnet152", core.SCM},
	{"mobilenetv2", core.SCM},
	{"googlenet", core.SCM},
	{"shufflenetv1", core.SCM},
}

// sweepPoint is platform point i of a deterministic rotation over the
// design-space axes a DSE sweep varies: 16–271 banks of 4–32 KiB, PE
// arrays from 16×16 to 64×64, and 0.5–4.0 GB/s feature-map channels.
func sweepPoint(i int) core.Config {
	pe := []int{16, 24, 32, 40, 48, 56, 64}
	cfg := core.Default()
	cfg.Pool.NumBanks = 16 + (i*37)%256
	cfg.Pool.BankBytes = (4 << (i % 4)) << 10
	cfg.PE.Tn = pe[i%len(pe)]
	cfg.PE.Tm = pe[(i/len(pe))%len(pe)]
	cfg.DRAM.BandwidthGBps = float64(10+(i*13)%71) / 20
	return cfg
}

// BenchmarkSimulateSweepPoints is one core.Simulate per op, cycling the
// sim-sweep (network, strategy) pairs over rotating platform points, so
// small-bank points (where P4 recycling moves many banks one at a time)
// weigh in as often as the calibrated one.
func BenchmarkSimulateSweepPoints(b *testing.B) {
	nets := map[string]*nn.Network{}
	for _, p := range sweepPairs {
		if nets[p.net] == nil {
			nets[p.net] = nn.MustBuild(p.net)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := sweepPairs[i%len(sweepPairs)]
		if _, err := core.Simulate(nets[p.net], sweepPoint(i), p.strat, nil); err != nil {
			b.Fatal(err)
		}
	}
}
