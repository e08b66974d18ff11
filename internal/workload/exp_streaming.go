package workload

import (
	"fmt"

	"shortcutmining/internal/core"
	"shortcutmining/internal/nn"
	"shortcutmining/internal/stats"
)

func init() {
	register(Experiment{
		ID:     "E18",
		Title:  "Streaming recycle for windowed layers (extension)",
		Anchor: "future-work generalization of P4: the add's incremental bank recycling applied to conv/pool sliding windows",
		Run:    runE18,
	})
}

func runE18(cfg core.Config) (Result, error) {
	scmPlus := core.SCM.Features()
	scmPlus.StreamingRecycle = true

	header := []string{"pool (KiB)"}
	for _, h := range headline {
		header = append(header, h.Network+" scm", h.Network+" +SR")
	}
	t := stats.NewTable("Feature-map traffic (MiB): canonical SCM vs SCM + streaming recycle", header...)
	metrics := map[string]float64{}
	for _, kb := range []int64{128, 256, 544, 1024} {
		row := []string{fmt.Sprint(kb)}
		for _, h := range headline {
			net, err := nn.Build(h.Network)
			if err != nil {
				return Result{}, err
			}
			c := cfg.WithPoolBytes(kb << 10)
			plain, err := core.Simulate(net, c, core.SCM, nil)
			if err != nil {
				return Result{}, err
			}
			plus, err := core.SimulateFeatures(net, c, scmPlus, nil)
			if err != nil {
				return Result{}, err
			}
			gain := 1 - float64(plus.FmapTrafficBytes())/float64(plain.FmapTrafficBytes())
			metrics[fmt.Sprintf("gain/%s/%d", h.Network, kb)] = gain
			row = append(row, stats.MB(plain.FmapTrafficBytes()), stats.MB(plus.FmapTrafficBytes()))
		}
		t.Add(row...)
	}
	return Result{
		Tables:  []*stats.Table{t},
		Metrics: metrics,
		Notes: []string{
			"Streaming recycle lets a conv or pool release consumed input banks into its own output (keeping a window margin), relieving the layers whose input+output jointly exceed the pool. The gain concentrates at small pools and on large early-stage feature maps — it extends the regime where Shortcut Mining beats line-buffered fusion (E17) downward in capacity.",
		},
	}, nil
}
