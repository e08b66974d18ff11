package workload

import (
	"fmt"

	"shortcutmining/internal/core"
	"shortcutmining/internal/nn"
	"shortcutmining/internal/stats"
)

func init() {
	register(Experiment{
		ID:     "E3",
		Title:  "Off-chip feature-map traffic reduction",
		Anchor: "“53.3%, 58%, and 43% reduction in off-chip feature map traffic for SqueezeNet, ResNet-34, and ResNet-152”",
		Run:    runE3,
	})
	register(Experiment{
		ID:     "E4",
		Title:  "Throughput",
		Anchor: "“a 1.93X increase in throughput compared with a state-of-the-art accelerator”",
		Run:    runE4,
	})
	register(Experiment{
		ID:     "E5",
		Title:  "Per-stage traffic breakdown (ResNet-34)",
		Anchor: "per-layer traffic figure",
		Run:    runE5,
	})
}

func runE3(cfg core.Config) (Result, error) {
	t := stats.NewTable("Off-chip feature-map traffic (per image)",
		"network", "baseline (MiB)", "fm-reuse (MiB)", "scm (MiB)",
		"fm-reuse reduction", "scm reduction", "paper")
	metrics := map[string]float64{}
	for _, h := range headline {
		base, err := simulate(h.Network, cfg, core.Baseline)
		if err != nil {
			return Result{}, err
		}
		fmr, err := simulate(h.Network, cfg, core.FMReuse)
		if err != nil {
			return Result{}, err
		}
		scm, err := simulate(h.Network, cfg, core.SCM)
		if err != nil {
			return Result{}, err
		}
		red := scm.TrafficReductionVs(base)
		metrics["reduction/"+h.Network] = red
		t.Add(h.Network,
			stats.MB(base.FmapTrafficBytes()),
			stats.MB(fmr.FmapTrafficBytes()),
			stats.MB(scm.FmapTrafficBytes()),
			stats.Pct(fmr.TrafficReductionVs(base)),
			stats.Pct(red),
			stats.Pct(h.Reduction))
	}
	return Result{
		Tables:  []*stats.Table{t},
		Metrics: metrics,
		Notes: []string{
			"The fm-reuse column isolates role switching (what a cross-layer-fusion accelerator achieves); the gap to the scm column is the shortcut data the paper mines.",
		},
	}, nil
}

func runE4(cfg core.Config) (Result, error) {
	t := stats.NewTable("Throughput (batch 1)",
		"network", "baseline (img/s)", "scm (img/s)", "speedup",
		"baseline GOPS", "scm GOPS")
	metrics := map[string]float64{}
	var speedups []float64
	for _, h := range headline {
		base, err := simulate(h.Network, cfg, core.Baseline)
		if err != nil {
			return Result{}, err
		}
		scm, err := simulate(h.Network, cfg, core.SCM)
		if err != nil {
			return Result{}, err
		}
		sp := scm.SpeedupVs(base)
		speedups = append(speedups, sp)
		metrics["speedup/"+h.Network] = sp
		t.Add(h.Network,
			stats.F2(base.Throughput()), stats.F2(scm.Throughput()),
			stats.F2(sp)+"×", stats.F2(base.GOPS()), stats.F2(scm.GOPS()))
	}
	geo := geomean(speedups)
	metrics["speedup/geomean"] = geo
	t.Add("geomean", "", "", stats.F2(geo)+"×", "", "")
	return Result{
		Tables:  []*stats.Table{t},
		Metrics: metrics,
		Notes: []string{
			fmt.Sprintf("Geomean speedup %.2f× vs the paper's %.2f×; the baseline is feature-map bound on the calibrated platform, so traffic saved converts to time saved.", geo, PaperSpeedup),
		},
	}, nil
}

func runE5(cfg core.Config) (Result, error) {
	net, err := nn.Build("resnet34")
	if err != nil {
		return Result{}, err
	}
	base, scm, err := baselineAndSCM(net, cfg)
	if err != nil {
		return Result{}, err
	}
	order, bAgg := base.StageTraffic()
	_, sAgg := scm.StageTraffic()
	t := stats.NewTable("ResNet-34 per-stage feature-map traffic",
		"stage", "baseline (MiB)", "scm (MiB)", "reduction")
	metrics := map[string]float64{}
	for _, st := range order {
		if st == "(none)" || bAgg[st] == 0 {
			continue
		}
		red := 1 - float64(sAgg[st])/float64(bAgg[st])
		metrics["stage/"+st] = red
		t.Add(st, stats.MB(bAgg[st]), stats.MB(sAgg[st]), stats.Pct(red))
	}
	return Result{
		Tables:  []*stats.Table{t},
		Metrics: metrics,
		Notes: []string{
			"Early stages (large feature maps vs. pool capacity) spill under partial retention; late stages are served entirely on chip — the shape the paper's per-layer figure shows.",
		},
	}, nil
}
