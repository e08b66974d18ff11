package workload

import (
	"fmt"

	"shortcutmining/internal/core"
	"shortcutmining/internal/fpga"
	"shortcutmining/internal/nn"
	"shortcutmining/internal/sram"
	"shortcutmining/internal/stats"
)

func init() {
	register(Experiment{
		ID:     "E20",
		Title:  "Bank granularity at fixed capacity",
		Anchor: "logical-buffer design knob: finer banks retain at finer grain (less internal fragmentation, better partial retention) but grow the port crossbar",
		Run:    runE20,
	})
}

func runE20(cfg core.Config) (Result, error) {
	total := cfg.Pool.TotalBytes()
	t := stats.NewTable(
		fmt.Sprintf("SCM at fixed %d KiB pool, varying bank count", total>>10),
		"banks", "bank size (KiB)", "resnet34 reduction", "squeezenet reduction",
		"crossbar LUTs", "crossbar share of device")
	metrics := map[string]float64{}
	reserveBytes := int64(cfg.ReserveBanks) * int64(cfg.Pool.BankBytes)
	for _, banks := range []int{17, 34, 68, 136, 272} {
		c := cfg
		c.Pool = sram.Config{NumBanks: banks, BankBytes: int(total) / banks}
		// Hold the streaming reserve at the same byte capacity so the
		// sweep isolates granularity from provisioning.
		c.ReserveBanks = int(reserveBytes) / c.Pool.BankBytes
		row := []string{fmt.Sprint(banks), fmt.Sprint(c.Pool.BankBytes >> 10)}
		for _, name := range []string{"resnet34", "squeezenet-bypass"} {
			net, err := nn.Build(name)
			if err != nil {
				return Result{}, err
			}
			base, scm, err := baselineAndSCM(net, c)
			if err != nil {
				return Result{}, err
			}
			red := scm.TrafficReductionVs(base)
			metrics[fmt.Sprintf("red/%s/%d", name, banks)] = red
			row = append(row, stats.Pct(red))
		}
		rep, err := fpga.Estimate(fpga.VC709(), fpga.Design{
			MACs:           c.PE.NumMACs(),
			PoolBanks:      banks,
			BankBytes:      c.Pool.BankBytes,
			WeightBufBytes: c.WeightBufBytes,
			LogicalBuffers: true,
		})
		if err != nil {
			return Result{}, err
		}
		metrics[fmt.Sprintf("xbar/%d", banks)] = float64(rep.CrossbarLUTs) / float64(rep.Device.LUT)
		row = append(row, fmt.Sprint(rep.CrossbarLUTs),
			stats.Pct(float64(rep.CrossbarLUTs)/float64(rep.Device.LUT)))
		t.Add(row...)
	}
	return Result{
		Tables:  []*stats.Table{t},
		Metrics: metrics,
		Notes: []string{
			"At fixed capacity, halving the bank size consistently buys traffic reduction (finer partial retention, less fragmentation of the retained prefix) while the crossbar grows linearly in the bank count — the sweet spot sits where the retention curve flattens, which is where the calibrated 34-bank default lives.",
		},
	}, nil
}
