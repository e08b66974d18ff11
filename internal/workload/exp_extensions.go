package workload

import (
	"fmt"

	"shortcutmining/internal/core"
	"shortcutmining/internal/dram"
	"shortcutmining/internal/nn"
	"shortcutmining/internal/stats"
)

func init() {
	register(Experiment{
		ID:     "E14",
		Title:  "Modern networks (extension)",
		Anchor: "generality of the procedures beyond the paper's 2019 zoo (depthwise bottlenecks, inception concats)",
		Run:    runE14,
	})
	register(Experiment{
		ID:     "E15",
		Title:  "Retention-conflict policy study (extension)",
		Anchor: "design choice in P5: the paper never evicts pinned shortcut data; compare against Belady-style eviction",
		Run:    runE15,
	})
	register(Experiment{
		ID:     "E16",
		Title:  "Feature-map channel bandwidth sensitivity",
		Anchor: "throughput claim's dependence on the memory-bound regime (DDR timing derivation in internal/dram)",
		Run:    runE16,
	})
}

func runE14(cfg core.Config) (Result, error) {
	t := stats.NewTable("Modern networks on the calibrated platform",
		"network", "shortcut share", "baseline (MiB)", "scm (MiB)", "reduction", "speedup")
	metrics := map[string]float64{}
	for _, name := range []string{"mobilenetv2", "googlenet", "resnext50", "shufflenetv1", "densenet121", "squeezenet-complex", "resnet50"} {
		net, err := nn.Build(name)
		if err != nil {
			return Result{}, err
		}
		ch := nn.Characterize(net, cfg.DType)
		base, scm, err := baselineAndSCM(net, cfg)
		if err != nil {
			return Result{}, err
		}
		red := scm.TrafficReductionVs(base)
		sp := scm.SpeedupVs(base)
		metrics["red/"+name] = red
		metrics["speedup/"+name] = sp
		t.Add(name, stats.Pct(ch.ShortcutShare),
			stats.MB(base.FmapTrafficBytes()), stats.MB(scm.FmapTrafficBytes()),
			stats.Pct(red), stats.F2(sp)+"×")
	}
	return Result{
		Tables:  []*stats.Table{t},
		Metrics: metrics,
		Notes: []string{
			"GoogLeNet's four-branch concats make its shortcut share the highest in the zoo (≈40%) and it benefits accordingly; MobileNetV2's 6×-expanded hidden maps dominate its traffic, so even full shortcut reuse moves a smaller fraction; DenseNet-121's 535 shortcut edges with spans up to 71 layers exercise retention hardest — the procedures generalize, and the magnitude tracks the shortcut share.",
		},
	}, nil
}

func runE15(cfg core.Config) (Result, error) {
	pools := []int64{256, 384, 544, 768}
	header := []string{"pool (KiB)"}
	for _, h := range headline {
		header = append(header, h.Network+" Δtraffic", h.Network+" evictions")
	}
	t := stats.NewTable("EvictFarthest vs the paper's retain-pinned policy (SCM)", header...)
	metrics := map[string]float64{}
	for _, kb := range pools {
		row := []string{fmt.Sprint(kb)}
		for _, h := range headline {
			net, err := nn.Build(h.Network)
			if err != nil {
				return Result{}, err
			}
			c := cfg.WithPoolBytes(kb << 10)
			keep, err := core.Simulate(net, c, core.SCM, nil)
			if err != nil {
				return Result{}, err
			}
			c.Eviction = core.EvictFarthest
			evict, err := core.Simulate(net, c, core.SCM, nil)
			if err != nil {
				return Result{}, err
			}
			delta := float64(evict.FmapTrafficBytes())/float64(keep.FmapTrafficBytes()) - 1
			metrics[fmt.Sprintf("delta/%s/%d", h.Network, kb)] = delta
			metrics[fmt.Sprintf("evictions/%s/%d", h.Network, kb)] = float64(evict.BanksEvicted)
			row = append(row, fmt.Sprintf("%+.2f%%", 100*delta), fmt.Sprint(evict.BanksEvicted))
		}
		t.Add(row...)
	}
	return Result{
		Tables:  []*stats.Table{t},
		Metrics: metrics,
		Notes: []string{
			"Belady-style eviction trades a far shortcut re-fetch for near output retention. On these workloads the gain stays within a few percent either way, supporting the paper's simpler never-evict choice — the shortcut's consumer is rarely far enough to lose a Belady comparison against the next layer's output at these pool sizes.",
		},
	}, nil
}

func runE16(cfg core.Config) (Result, error) {
	// The DDR derivation behind the sweep's anchor points.
	ddr := dram.DDR3_1600()
	strided, err := ddr.EffectiveGBps(48, 0.2)
	if err != nil {
		return Result{}, err
	}
	seq, err := ddr.EffectiveGBps(4096, 0.95)
	if err != nil {
		return Result{}, err
	}

	header := []string{"fmap channel (GB/s)"}
	for _, h := range headline {
		header = append(header, h.Network+" speedup")
	}
	t := stats.NewTable("SCM speedup vs feature-map channel bandwidth", header...)
	metrics := map[string]float64{}
	for _, bw := range []float64{0.5, 1.0, 2.0, 4.0, 8.0, 12.8} {
		row := []string{fmt.Sprintf("%.1f", bw)}
		for _, h := range headline {
			net, err := nn.Build(h.Network)
			if err != nil {
				return Result{}, err
			}
			c := cfg
			c.DRAM.BandwidthGBps = bw
			base, scm, err := baselineAndSCM(net, c)
			if err != nil {
				return Result{}, err
			}
			sp := scm.SpeedupVs(base)
			metrics[fmt.Sprintf("speedup/%s/%.1f", h.Network, bw)] = sp
			row = append(row, stats.F2(sp)+"×")
		}
		t.Add(row...)
	}
	var charts []string
	bws := []float64{0.5, 1.0, 2.0, 4.0, 8.0, 12.8}
	for _, h := range headline {
		labels := make([]string, len(bws))
		values := make([]float64, len(bws))
		for i, bw := range bws {
			labels[i] = fmt.Sprintf("%.1f GB/s", bw)
			values[i] = metrics[fmt.Sprintf("speedup/%s/%.1f", h.Network, bw)]
		}
		charts = append(charts, stats.Chart(h.Network+" — SCM speedup vs fmap bandwidth", labels, values, 40))
	}
	return Result{
		Tables:  []*stats.Table{t},
		Charts:  charts,
		Metrics: metrics,
		Notes: []string{
			fmt.Sprintf("DDR3-1600 derivation (internal/dram): %.2f GB/s effective for the short strided bursts of the feature-map stream (48 B transactions, 20%% row hits) vs %.2f GB/s for sequential weight streaming — the calibrated 1.0 GB/s default and the dedicated 12.8 GB/s weight channel.", strided, seq),
			"The speedup decays toward 1× as the feature-map channel fattens and the design becomes compute-bound — traffic reduction is unchanged, but it no longer buys time. The paper's throughput claim presumes the memory-bound regime on the left of this table.",
		},
	}, nil
}
