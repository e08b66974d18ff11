package workload

import (
	"fmt"

	"shortcutmining/internal/cluster"
	"shortcutmining/internal/core"
	"shortcutmining/internal/sched"
	"shortcutmining/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "E24",
		Title: "Multi-chip sharding: topology × placement under a contended interconnect",
		Anchor: "distributed-serving extension (not in the paper): sharding a multi-tenant " +
			"scenario across chips turns the paper's on-chip shortcut-reuse question into a " +
			"placement question — a boundary that cuts a pinned shortcut forces its bytes over " +
			"a contended chip-to-chip link, so placement policies that respect shortcut " +
			"affinity trade load balance against interconnect traffic, and the fabric's " +
			"backpressure is ledgered as its own traffic class that reconciles exactly.",
		Run: runE24,
	})
}

// e24Streams is the fixed sharded scenario: a shortcut-heavy ResNet
// stream and a bursty bypass-dominated stream. At this density link
// occupancy windows rarely overlap: only hash placement's ping-pong
// handoffs ever queue, for a few thousand cycles at most.
const e24Streams = "stream=resnet34:n=3,gap=400000,name=resnet;" +
	"stream=squeezenet-bypass:n=5,gap=150000,poisson,name=bypass"

func runE24(cfg core.Config) (Result, error) {
	res := Result{Metrics: map[string]float64{}}
	summary := stats.NewTable(
		"Topology × placement sweep (4 chips, 2 streams)",
		"topo", "placement", "makespan (Mcyc)", "crossings", "interchip (MB)",
		"handoff (MB)", "backpressure (Mcyc)")

	// Placement totals across topologies, to call the winner below.
	cycles := map[string]int64{}
	inter := map[string]int64{}

	for _, topo := range []string{"ring", "mesh", "all"} {
		for _, place := range []string{"hash", "leastload", "affinity"} {
			spec, err := sched.ParseSpec(fmt.Sprintf(
				"seed=24;chips=4;topo=%s;place=%s;%s", topo, place, e24Streams))
			if err != nil {
				return Result{}, err
			}
			out, err := cluster.Run(cfg, spec, nil, nil)
			if err != nil {
				return Result{}, err
			}
			if err := out.Reconcile(); err != nil {
				return Result{}, err
			}
			var crossings, handoff int64
			for _, s := range out.Streams {
				crossings += s.Crossings
			}
			for _, q := range out.Requests {
				handoff += q.ShortcutHandoffBytes
			}
			key := topo + "/" + place
			res.Metrics["makespan_mcyc/"+key] = float64(out.MakespanCycles) / 1e6
			res.Metrics["interchip_mb/"+key] = float64(out.InterchipBytes) / 1e6
			res.Metrics["backpressure_mcyc/"+key] = float64(out.Noc.BackpressureCycles) / 1e6
			cycles[place] += out.MakespanCycles
			inter[place] += out.InterchipBytes
			summary.Add(topo, place,
				stats.F2(float64(out.MakespanCycles)/1e6),
				fmt.Sprintf("%d", crossings),
				stats.F2(float64(out.InterchipBytes)/1e6),
				stats.F2(float64(handoff)/1e6),
				stats.F2(float64(out.Noc.BackpressureCycles)/1e6))
		}
	}
	res.Tables = append(res.Tables, summary)

	// The experiment's claim: placement policies measurably differ.
	// Record the summed-makespan spread so the test can pin it > 0.
	var minC, maxC int64
	for _, place := range []string{"hash", "leastload", "affinity"} {
		c := cycles[place]
		if minC == 0 || c < minC {
			minC = c
		}
		if c > maxC {
			maxC = c
		}
		res.Metrics["total_makespan_mcyc/"+place] = float64(c) / 1e6
		res.Metrics["total_interchip_mb/"+place] = float64(inter[place]) / 1e6
	}
	res.Metrics["placement_spread_mcyc"] = float64(maxC-minC) / 1e6

	res.Notes = append(res.Notes,
		"Hash placement balances segments blindly and pays the most boundary crossings; "+
			"affinity placement keeps pinned-shortcut liveness spans on one chip, cutting both "+
			"interchip bytes and the handoff share that is forced shortcut state. "+
			"At this load the topology barely matters: only hash placement queues any transfer "+
			"(64 cycles of backpressure on ring and all-to-all, 4,532 on mesh), so every "+
			"backpressure cell reads 0.00 Mcyc and makespans differ across topologies by at most "+
			"0.01 Mcyc. Every cell reconciles: "+
			"per-request service cycles stay bit-identical to single-tenant runs, and fabric "+
			"bytes re-appear as the interchip class of the DRAM traffic ledger.")
	return res, nil
}
