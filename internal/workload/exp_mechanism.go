package workload

import (
	"fmt"

	"shortcutmining/internal/core"
	"shortcutmining/internal/fpga"
	"shortcutmining/internal/nn"
	"shortcutmining/internal/stats"
)

func init() {
	register(Experiment{
		ID:     "E8",
		Title:  "Procedure ablation",
		Anchor: "“a sequence of procedures which, collectively, can effectively reuse both shortcut and non-shortcut feature maps”",
		Run:    runE8,
	})
	register(Experiment{
		ID:     "E9",
		Title:  "Shortcut span invariance",
		Anchor: "“reuse shortcut data across any number of intermediate layers without using additional buffer resources”",
		Run:    runE9,
	})
	register(Experiment{
		ID:     "E10",
		Title:  "Bank-pool interconnect overhead",
		Anchor: "FPGA prototype resource tables",
		Run:    runE10,
	})
	register(Experiment{
		ID:     "E13",
		Title:  "Concat-style shortcut reuse",
		Anchor: "generality beyond element-wise adds (fire modules, dense connectivity)",
		Run:    runE13,
	})
}

func runE8(cfg core.Config) (Result, error) {
	steps := []struct {
		label string
		feat  core.Features
	}{
		{"baseline", core.Features{}},
		{"+P1/P2 role switching", core.Features{RoleSwitch: true, PartialRetention: true}},
		{"+P3 shortcut retention", core.Features{RoleSwitch: true, ShortcutRetention: true, PartialRetention: true}},
		{"+P4 bank recycling (= SCM)", core.SCM.Features()},
		{"SCM without P5 (all-or-nothing)", core.Features{RoleSwitch: true, ShortcutRetention: true, IncrementalRecycle: true}},
	}
	t := stats.NewTable("Feature-map traffic by procedure set (MiB per image)",
		"design point", "squeezenet-bypass", "resnet34", "resnet152")
	metrics := map[string]float64{}
	baselines := map[string]int64{}
	for i, st := range steps {
		row := []string{st.label}
		for _, h := range headline {
			net, err := nn.Build(h.Network)
			if err != nil {
				return Result{}, err
			}
			r, err := core.SimulateFeatures(net, cfg, st.feat, nil)
			if err != nil {
				return Result{}, err
			}
			if i == 0 {
				baselines[h.Network] = r.FmapTrafficBytes()
			}
			red := 1 - float64(r.FmapTrafficBytes())/float64(baselines[h.Network])
			metrics[fmt.Sprintf("red/%d/%s", i, h.Network)] = red
			row = append(row, fmt.Sprintf("%s (%s)", stats.MB(r.FmapTrafficBytes()), stats.Pct(red)))
		}
		t.Add(row...)
	}
	return Result{
		Tables:  []*stats.Table{t},
		Metrics: metrics,
		Notes: []string{
			"Each procedure contributes: role switching removes adjacent-layer round trips, retention removes shortcut re-fetches, recycling frees the add's peak demand, and partial retention keeps the mechanism effective when feature maps outgrow the pool (its absence hurts exactly the large-fmap networks).",
		},
	}, nil
}

func runE9(cfg core.Config) (Result, error) {
	t := stats.NewTable("Synthetic shortcut span sweep (8×16×16 fmaps, 3 blocks)",
		"intermediate layers", "scm fmap traffic (KiB)", "peak pinned banks", "peak used banks", "baseline fmap traffic (KiB)")
	metrics := map[string]float64{}
	for span := 1; span <= 8; span++ {
		net, err := nn.ShortcutSpanNet(span, 3, 8, 16)
		if err != nil {
			return Result{}, err
		}
		base, scm, err := baselineAndSCM(net, cfg)
		if err != nil {
			return Result{}, err
		}
		metrics[fmt.Sprintf("traffic/%d", span)] = float64(scm.FmapTrafficBytes())
		metrics[fmt.Sprintf("pinned/%d", span)] = float64(scm.PeakPinnedBanks)
		t.Add(fmt.Sprint(span),
			fmt.Sprintf("%.1f", float64(scm.FmapTrafficBytes())/1024),
			fmt.Sprint(scm.PeakPinnedBanks),
			fmt.Sprint(scm.PeakUsedBanks),
			fmt.Sprintf("%.1f", float64(base.FmapTrafficBytes())/1024))
	}
	return Result{
		Tables:  []*stats.Table{t},
		Metrics: metrics,
		Notes: []string{
			"SCM's traffic and pinned-bank peak are flat in the span while the baseline grows linearly — retention across any number of intermediate layers costs no additional buffer resources, the paper's distinguishing claim over fused-layer approaches.",
		},
	}, nil
}

func runE10(cfg core.Config) (Result, error) {
	t := stats.NewTable("Crossbar overhead vs pool granularity (VC709)",
		"banks", "bank size (KiB)", "crossbar LUTs", "share of design", "share of device", "fits")
	metrics := map[string]float64{}
	totalBytes := cfg.Pool.TotalBytes()
	for _, banks := range []int{8, 16, 34, 64, 128} {
		d := designFor(cfg, true)
		d.PoolBanks = banks
		d.BankBytes = int(totalBytes) / banks
		rep, err := fpga.Estimate(fpga.VC709(), d)
		if err != nil {
			return Result{}, err
		}
		ovh := rep.OverheadVsBaseline()
		metrics[fmt.Sprintf("overhead/%d", banks)] = ovh
		t.Add(fmt.Sprint(banks), fmt.Sprint(d.BankBytes>>10),
			fmt.Sprint(rep.CrossbarLUTs), stats.Pct(ovh),
			stats.Pct(float64(rep.CrossbarLUTs)/float64(rep.Device.LUT)),
			fmt.Sprint(rep.Fits))
	}
	return Result{
		Tables:  []*stats.Table{t},
		Metrics: metrics,
		Notes: []string{
			"Finer banking improves retention granularity but grows the port crossbar linearly; the calibrated 34-bank pool keeps the interconnect at a few percent of device LUTs.",
		},
	}, nil
}

func runE13(cfg core.Config) (Result, error) {
	t := stats.NewTable("Concat-style reuse",
		"network", "baseline (MiB)", "fm-reuse (MiB)", "scm (MiB)", "scm reduction")
	metrics := map[string]float64{}
	nets := []string{"squeezenet", "squeezenet-bypass", "squeezenet-complex", "densechain"}
	for _, name := range nets {
		base, err := simulate(name, cfg, core.Baseline)
		if err != nil {
			return Result{}, err
		}
		fmr, err := simulate(name, cfg, core.FMReuse)
		if err != nil {
			return Result{}, err
		}
		scm, err := simulate(name, cfg, core.SCM)
		if err != nil {
			return Result{}, err
		}
		red := scm.TrafficReductionVs(base)
		metrics["red/"+name] = red
		t.Add(name, stats.MB(base.FmapTrafficBytes()), stats.MB(fmr.FmapTrafficBytes()),
			stats.MB(scm.FmapTrafficBytes()), stats.Pct(red))
	}
	return Result{
		Tables:  []*stats.Table{t},
		Metrics: metrics,
		Notes: []string{
			"Concatenation is pure bank layout under logical buffers (zero-copy merge of the producers' banks), so fire modules and dense connectivity benefit from the same procedures as residual adds — including plain SqueezeNet, whose fire modules contain short-span cross-branch edges even without bypass.",
		},
	}, nil
}
