package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"shortcutmining/internal/core"
	"shortcutmining/internal/dse"
	"shortcutmining/internal/sram"
)

// gridPoint is one platform point of the design-space grid the
// workloads draw their configurations from.
type gridPoint struct {
	Banks, BankKiB, Tn, Tm int
	GBps                   float64
}

// The grid: 256 bank counts × 4 bank sizes × 13×13 PE arrays × 71
// feature-map channel speeds = 12,286,976 points. sim-sweep, the
// fastest workload, draws about 130,000 in a 20 s trial and its
// warm-up on a 2-vCPU host, so the grid has room for a simulator over
// 90 times faster.
var (
	gridBankKiB = []int{4, 8, 16, 32}
	gridPE      = []int{16, 20, 24, 28, 32, 36, 40, 44, 48, 52, 56, 60, 64}
)

const (
	gridBanksMin = 16
	gridBanksN   = 256
	gridGBpsN    = 71 // 0.5 to 4.0 GB/s in 0.05 GB/s steps
)

var gridSize = int64(gridBanksN * len(gridBankKiB) * len(gridPE) * len(gridPE) * gridGBpsN)

// gridAt decodes grid index k (mixed radix).
func gridAt(k int64) gridPoint {
	var p gridPoint
	p.GBps = float64(10+k%gridGBpsN) / 20
	k /= gridGBpsN
	p.Tm = gridPE[k%int64(len(gridPE))]
	k /= int64(len(gridPE))
	p.Tn = gridPE[k%int64(len(gridPE))]
	k /= int64(len(gridPE))
	p.BankKiB = gridBankKiB[k%int64(len(gridBankKiB))]
	k /= int64(len(gridBankKiB))
	p.Banks = gridBanksMin + int(k)
	return p
}

// config applies the point to the calibrated platform.
func (p gridPoint) config() core.Config {
	cfg := core.Default()
	cfg.Pool = sram.Config{NumBanks: p.Banks, BankBytes: p.BankKiB << 10}
	cfg.PE.Tn, cfg.PE.Tm = p.Tn, p.Tm
	cfg.DRAM.BandwidthGBps = p.GBps
	return cfg
}

// configJSON is the point as a core.DecodeConfigJSON override document
// (fields it leaves out keep their calibrated defaults).
func (p gridPoint) configJSON() []byte {
	return fmt.Appendf(nil, `{"Pool":{"NumBanks":%d,"BankBytes":%d},"PE":{"Tn":%d,"Tm":%d},"DRAM":{"BandwidthGBps":%g}}`,
		p.Banks, p.BankKiB<<10, p.Tn, p.Tm, p.GBps)
}

// perm is a seeded bijection on the grid indices: op k draws point
// perm.at(k), so no point repeats within a run.
type perm struct{ a, b int64 }

func newPerm(rng *rand.Rand) perm {
	a := 1 + rng.Int63n(gridSize-1)
	for gcd(a, gridSize) != 1 {
		a = a%(gridSize-1) + 1
	}
	return perm{a: a, b: rng.Int63n(gridSize)}
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// at returns the grid index of draw k. A run that needs more draws than
// the grid holds would repeat a configuration, so it is an error.
func (p perm) at(k int64) (int64, error) {
	if k < 0 || k >= gridSize {
		return 0, fmt.Errorf("draw %d exceeds the %d-point configuration grid", k, gridSize)
	}
	return (p.a*k + p.b) % gridSize, nil
}

// Job kinds of the serving API.
const (
	kindSimulate = "simulate"
	kindSweep    = "sweep"
	kindSchedule = "schedule"
	kindCluster  = "cluster"
)

// doc is one op's input document: what a client sends, and what the
// traced run replays through each layer.
type doc struct {
	Kind     string
	Network  string
	Strategy core.Strategy
	// Point is the platform; HasPoint false means core.Default().
	Point    gridPoint
	HasPoint bool
	Observe  bool
	// Seed is the schedule or cluster scenario seed.
	Seed int64
}

func (d doc) config() core.Config {
	if d.HasPoint {
		return d.Point.config()
	}
	return core.Default()
}

// decodeConfig decodes d's platform from the override document a client
// sends, as the server does.
func decodeConfig(d doc) (core.Config, error) {
	if !d.HasPoint {
		return core.Default(), nil
	}
	return core.DecodeConfigJSON(bytes.NewReader(d.Point.configJSON()))
}

// netStrategy is one (network, strategy) pair of a workload's cycle.
type netStrategy struct {
	Network  string
	Strategy core.Strategy
}

// simCombos is the sim-sweep cycle; between them the networks cover
// every layer kind.
var simCombos = []netStrategy{
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

// serveNetworks are the networks clients of the serve workloads name;
// they also cover every layer kind.
var serveNetworks = []string{"squeezenet", "resnet18", "resnet34", "mobilenetv2", "googlenet", "shufflenetv1"}

// durableMix is the serve-durable job cycle: 6 simulate, 2 sweep,
// 1 schedule and 1 cluster job in every 10.
var durableMix = []string{
	kindSimulate, kindSimulate, kindSweep, kindSimulate, kindSchedule,
	kindSimulate, kindSimulate, kindSweep, kindSimulate, kindCluster,
}

// durablePrerun is how many jobs fill the serve-durable journal before
// set-up recovers it.
const durablePrerun = 500

// warmOps is how many plan ops serve-hot and serve-cold send during
// set-up: one per (network, strategy) pair.
var warmOps = int64(len(serveNetworks) * len(core.Strategies()))

// sweepNetwork is the network of serve-durable's sweep jobs.
const sweepNetwork = "resnet18"

// plan maps op indices to docs for one workload and seed. Op i is a
// pure function of (workload, seed, i), whichever client sends it.
type plan struct {
	workload string
	perm     perm
	// order shuffles the workload's (network, strategy) cycle.
	order []netStrategy
}

func newPlan(workload string, seed int64) (*plan, error) {
	rng := rand.New(rand.NewSource(seed))
	p := &plan{workload: workload, perm: newPerm(rng)}
	switch workload {
	case "sim-sweep":
		p.order = simCombos
	case "serve-hot", "serve-cold", "serve-durable":
		for _, n := range serveNetworks {
			for _, s := range core.Strategies() {
				p.order = append(p.order, netStrategy{n, s})
			}
		}
		rng.Shuffle(len(p.order), func(i, j int) { p.order[i], p.order[j] = p.order[j], p.order[i] })
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
	}
	return p, nil
}

// doc returns op i of the plan. Every doc carries a grid point and a
// seed; the point is the request's platform where HasPoint is set, and
// both also parameterize the job-level layers the traced run replays.
func (p *plan) doc(i int64) (doc, error) {
	j := i
	if p.workload == "serve-hot" {
		// serve-hot repeats its 18 warm keys by design; its draws only
		// vary the replayed job-level layers, so they may wrap.
		j = i % gridSize
	}
	k, err := p.perm.at(j)
	if err != nil {
		return doc{}, err
	}
	ns := p.order[i%int64(len(p.order))]
	d := doc{
		Kind: kindSimulate, Network: ns.Network, Strategy: ns.Strategy,
		Point: gridAt(k), HasPoint: p.workload != "serve-hot", Seed: k + 1,
	}
	switch p.workload {
	case "serve-cold":
		d.Observe = i%8 == 7
	case "serve-durable":
		d.Kind = durableMix[i%int64(len(durableMix))]
		switch d.Kind {
		case kindSweep:
			d.Network, d.Strategy = sweepNetwork, core.SCM
		case kindSchedule, kindCluster:
			d.Strategy, d.HasPoint = core.SCM, false
		}
	}
	return d, nil
}

// sweepSpace is the 4-point design space of a sweep job built from d.
func (d doc) sweepSpace() dse.Space {
	p := d.Point
	return dse.Space{
		Banks:    []int{p.Banks, p.Banks + gridBanksN},
		BankKiB:  []int{p.BankKiB},
		PE:       [][2]int{{p.Tn, p.Tm}},
		FmapGBps: []float64{p.GBps, p.GBps + 4},
	}
}

// scheduleSpec is the single-chip scenario of a schedule job built from d.
func (d doc) scheduleSpec() string {
	return fmt.Sprintf("seed=%d;policy=rr;stream=%s:n=2,gap=1000000,poisson;stream=squeezenet:n=2,gap=500000,poisson",
		d.Seed, d.Network)
}

// clusterSpec is the two-chip scenario of a cluster job built from d.
func (d doc) clusterSpec() string {
	return fmt.Sprintf("seed=%d;chips=2;topo=ring;place=affinity;stream=%s:n=2,gap=1000000,poisson",
		d.Seed, d.Network)
}
