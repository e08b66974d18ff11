package workload

import (
	"fmt"

	"shortcutmining/internal/core"
	"shortcutmining/internal/fault"
	"shortcutmining/internal/nn"
	"shortcutmining/internal/stats"
)

func init() {
	register(Experiment{
		ID:     "E22",
		Title:  "Graceful degradation under faults",
		Anchor: "robustness extension (not in the paper): SCM's traffic advantage should degrade gracefully — not collapse — as SRAM banks hard-fail mid-run, while the baseline, which keeps nothing on chip, is flat by construction; DMA retry and bandwidth faults cost cycles but never inflate payload traffic.",
		Run:    runE22,
	})
}

// e22Seed fixes every random choice (victim banks) of the experiment.
const e22Seed = 22

func runE22(cfg core.Config) (Result, error) {
	// Bank-failure sweep: 0%, ~12%, ~25% of the pool retired mid-run,
	// split across an early and a mid-network layer.
	fractions := []struct {
		label string
		banks int
	}{
		{"0%", 0},
		{"12%", cfg.Pool.NumBanks * 12 / 100},
		{"25%", cfg.Pool.NumBanks * 25 / 100},
	}
	t := stats.NewTable(
		fmt.Sprintf("Feature-map traffic (MB) with banks hard-failing mid-run (pool = %d banks)", cfg.Pool.NumBanks),
		"network", "failed banks", "baseline", "scm", "scm inflation vs fault-free", "scm reduction vs baseline")
	metrics := map[string]float64{}
	for _, h := range headline {
		net, err := nn.Build(h.Network)
		if err != nil {
			return Result{}, err
		}
		var cleanSCM stats.RunStats
		for _, fr := range fractions {
			fcfg := cfg
			if fr.banks > 0 {
				fcfg.Faults = fault.UniformBankFailures(e22Seed, fr.banks, 2, 8)
			}
			base, scm, err := baselineAndSCM(net, fcfg)
			if err != nil {
				return Result{}, err
			}
			if fr.banks == 0 {
				cleanSCM = scm
			}
			inflation := float64(scm.FmapTrafficBytes())/float64(cleanSCM.FmapTrafficBytes()) - 1
			metrics[fmt.Sprintf("inflation/%s/%s", h.Network, fr.label)] = inflation
			metrics[fmt.Sprintf("reduction/%s/%s", h.Network, fr.label)] = scm.TrafficReductionVs(base)
			t.Add(h.Network, fmt.Sprintf("%d (%s)", fr.banks, fr.label),
				stats.F2(float64(base.FmapTrafficBytes())/1e6),
				stats.F2(float64(scm.FmapTrafficBytes())/1e6),
				stats.Pct(inflation),
				stats.Pct(scm.TrafficReductionVs(base)))
		}
	}

	// Channel adversity: transient DMA failures plus a mid-run
	// bandwidth drop. Payload traffic must not move; cycles may.
	adv := cfg
	adv.Faults = &fault.Spec{
		Seed:     e22Seed,
		DropProb: 0.05,
		Events: []fault.Event{
			{Kind: fault.BandwidthDegrade, Layer: 4, Factor: 0.75},
		},
	}
	t2 := stats.NewTable(
		"DMA drops (p=0.05) + bandwidth degradation (0.75x from layer 4): cycle cost without traffic inflation",
		"network", "strategy", "dma retries", "retry cycles", "degraded cycles", "throughput vs fault-free", "traffic moved?")
	for _, h := range headline {
		net, err := nn.Build(h.Network)
		if err != nil {
			return Result{}, err
		}
		for _, s := range []core.Strategy{core.Baseline, core.SCM} {
			clean, err := core.Simulate(net, cfg, s, nil)
			if err != nil {
				return Result{}, err
			}
			faulty, err := core.Simulate(net, adv, s, nil)
			if err != nil {
				return Result{}, err
			}
			moved := "no"
			if faulty.Traffic != clean.Traffic {
				moved = "YES (bug)"
			}
			rel := faulty.Throughput() / clean.Throughput()
			metrics[fmt.Sprintf("adversity-throughput/%s/%s", h.Network, s)] = rel
			t2.Add(h.Network, s.String(),
				fmt.Sprintf("%d", faulty.Faults.DMARetries),
				fmt.Sprintf("%d", faulty.Faults.DMARetryCycles),
				fmt.Sprintf("%d", faulty.Faults.DegradedCycles),
				stats.Pct(rel),
				moved)
		}
	}

	return Result{
		Tables:  []*stats.Table{t, t2},
		Metrics: metrics,
		Notes: []string{
			"Bank failures only touch designs that keep state in the pool: the baseline's ping-pong split is a static budget, so its traffic is identical in every row, while SCM loses retention capacity bank by bank — relocating pinned shortcut data to spares while they last, then P5-spilling the tail — and its traffic inflates smoothly toward (but stays below) the baseline. Functional mode replays the same fault plans bit-exactly (see TestFunctionalBitExactUnderFaults).",
			"DMA retries re-move bytes that already count once in the traffic tally, so the paper's headline metric is retry-invariant by construction; the cost shows up purely as retry/backoff and degraded-bandwidth cycles serialized into the affected layers.",
		},
	}, nil
}
