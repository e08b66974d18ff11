// Package shortcutmining is a simulator and library reproduction of
// "Shortcut Mining: Exploiting Cross-Layer Shortcut Reuse in DCNN
// Accelerators" (AziziMazreah & Chen, HPCA 2019).
//
// The library models a tiled DCNN accelerator whose on-chip SRAM is a
// pool of banks composed into logical buffers at run time, and
// implements the paper's procedures — buffer role switching, shortcut
// retention across any number of intermediate layers, incremental bank
// recycling at element-wise adds, and partial retention — alongside
// the conventional baseline they are compared against. See DESIGN.md
// for the system inventory and EXPERIMENTS.md for the measured
// reproduction of every table and figure.
//
// Quick start:
//
//	net, _ := shortcutmining.BuildNetwork("resnet34")
//	cfg := shortcutmining.DefaultConfig()
//	base, _ := shortcutmining.Simulate(net, cfg, shortcutmining.Baseline)
//	scm, _ := shortcutmining.Simulate(net, cfg, shortcutmining.SCM)
//	fmt.Printf("traffic reduction: %.1f%%\n", 100*scm.TrafficReductionVs(base))
package shortcutmining

import (
	"context"
	"fmt"
	"io"

	"shortcutmining/internal/cluster"
	"shortcutmining/internal/compress"
	"shortcutmining/internal/core"
	"shortcutmining/internal/dse"
	"shortcutmining/internal/fault"
	"shortcutmining/internal/fpga"
	"shortcutmining/internal/metrics"
	"shortcutmining/internal/nn"
	"shortcutmining/internal/sched"
	"shortcutmining/internal/stats"
	"shortcutmining/internal/tensor"
	"shortcutmining/internal/trace"
	"shortcutmining/internal/workload"
)

// Re-exported types. The aliases expose the full documented behaviour
// of the underlying packages through a single import path.
type (
	// Config is the accelerator platform: PE array, SRAM bank pool,
	// DRAM channels, precision, batch.
	Config = core.Config
	// Strategy selects the buffer-management design point.
	Strategy = core.Strategy
	// Features is the per-procedure ablation switchboard.
	Features = core.Features
	// RunStats is the outcome of one simulation.
	RunStats = stats.RunStats
	// LayerStats is the per-layer slice of a RunStats.
	LayerStats = stats.LayerStats
	// Network is a validated layer graph.
	Network = nn.Network
	// NetworkBuilder assembles custom networks layer by layer.
	NetworkBuilder = nn.Builder
	// Shape is a C×H×W feature-map shape.
	Shape = tensor.Shape
	// DataType is the activation/weight element type.
	DataType = tensor.DataType
	// Characteristics summarizes a network's shortcut structure.
	Characteristics = nn.Characteristics
	// ExperimentResult is the rendered outcome of a suite experiment.
	ExperimentResult = workload.Result
	// FaultSpec is a deterministic fault-injection plan (SRAM bank
	// failures, DMA drops, bandwidth degradation) attached to
	// Config.Faults; see ParseFaultSpec for the CLI grammar.
	FaultSpec = fault.Spec
	// FaultEvent is one scheduled fault inside a FaultSpec.
	FaultEvent = fault.Event
	// RunError is a classified simulation failure (recoverable
	// capacity exhaustion vs fatal invariant/liveness violations).
	RunError = fault.RunError
	// CompressConfig is an interlayer feature-map codec attached to
	// Config.Compression; see ParseCompressSpec for the CLI grammar.
	CompressConfig = compress.Config
	// CompressionStats is a run's codec ledger (logical vs wire bytes
	// per traffic class plus codec engine cycles), carried on
	// RunStats.Compression when compression is on.
	CompressionStats = stats.CompressionStats
)

// Buffer-management strategies, in increasing capability order.
const (
	// Baseline is the conventional accelerator (static ping-pong
	// buffers, per-layer DRAM round trips).
	Baseline = core.Baseline
	// FMReuse enables only cross-layer role switching.
	FMReuse = core.FMReuse
	// SCM is full Shortcut Mining.
	SCM = core.SCM
)

// Element types.
const (
	// Fixed8 is 8-bit fixed point.
	Fixed8 = tensor.Fixed8
	// Fixed16 is 16-bit fixed point (the paper's precision).
	Fixed16 = tensor.Fixed16
	// Float32 is IEEE-754 single precision.
	Float32 = tensor.Float32
)

// RunError severities.
const (
	// Recoverable marks a run the injected faults made impossible while
	// the simulator state stayed consistent.
	Recoverable = fault.Recoverable
	// Fatal marks an internal consistency failure.
	Fatal = fault.Fatal
)

// Pooling kinds for NewNetworkBuilder graphs.
const (
	// MaxPool selects the window maximum.
	MaxPool = nn.MaxPool
	// AvgPool selects the window mean.
	AvgPool = nn.AvgPool
)

// DefaultConfig returns the calibrated platform used throughout
// EXPERIMENTS.md.
func DefaultConfig() Config { return core.Default() }

// BuildNetwork constructs a model-zoo network by name; see
// NetworkNames for the catalog.
func BuildNetwork(name string) (*Network, error) { return nn.Build(name) }

// NetworkNames lists the model zoo.
func NetworkNames() []string { return nn.ZooNames() }

// HeadlineNetworks returns the three networks of the paper's abstract
// in reporting order.
func HeadlineNetworks() []string { return nn.HeadlineNetworks() }

// ParseFaultSpec parses the compact fault-plan grammar shared with the
// CLIs' -faults flag, e.g.
//
//	seed=42;bank-fail@4:n=3;dma-drop:p=0.05;bw-degrade@10:factor=0.5
func ParseFaultSpec(s string) (*FaultSpec, error) { return fault.ParseSpec(s) }

// AsRunError unwraps err to its *RunError classification, if any.
func AsRunError(err error) (*RunError, bool) { return fault.AsRunError(err) }

// ParseCompressSpec parses the compact codec grammar shared with the
// CLIs' -compress flag and the scheduling grammar's compress= clause,
// e.g.
//
//	fixed:ratio=2,enc=1,dec=1
//	zvc:sparsity=0.55,elem=2,enc=2,dec=2,classes=ifm+ofm+shortcut
func ParseCompressSpec(s string) (*CompressConfig, error) { return compress.ParseSpec(s) }

// NewNetworkBuilder starts a custom network with the given input
// shape. Finish the graph with its Finish method and simulate it like
// any zoo network (see examples/custom_network).
func NewNetworkBuilder(name string, input Shape) *NetworkBuilder {
	return nn.NewBuilder(name, input)
}

// ResNet, SqueezeNet and friends are also reachable directly for
// parameterized construction.
var (
	// BuildResNet builds an ImageNet ResNet (depth 18/34/50/101/152).
	BuildResNet = nn.ResNet
	// BuildShortcutSpanNet builds the synthetic span-sweep network of
	// experiment E9.
	BuildShortcutSpanNet = nn.ShortcutSpanNet
	// BuildDenseChain builds a DenseNet-style concat chain.
	BuildDenseChain = nn.DenseChain
)

// Simulate runs the network on the platform under the given strategy.
func Simulate(net *Network, cfg Config, s Strategy) (RunStats, error) {
	return SimulateContext(context.Background(), net, cfg, s)
}

// SimulateContext is Simulate with cooperative cancellation: the run
// checks ctx at every layer boundary and returns ctx's error once it is
// canceled or past its deadline. Concurrent calls are safe; each run's
// state is private.
func SimulateContext(ctx context.Context, net *Network, cfg Config, s Strategy) (RunStats, error) {
	return core.SimulateContext(ctx, net, cfg, s, nil)
}

// SimulateObserved runs the network with the observability layer on:
// the returned RunStats carries a Metrics snapshot (per-layer cycle
// attribution, per-class DRAM counters, burst-size and bandwidth-
// utilization histograms, pool high-water marks, and procedure
// hit/miss counters). scm-sim -metrics renders the same registry as a
// Prometheus-style text page.
func SimulateObserved(net *Network, cfg Config, s Strategy) (RunStats, error) {
	return core.SimulateObservedContext(context.Background(), net, cfg, s, nil, metrics.New())
}

// SimulateWithTrace additionally streams the scheduler's buffer
// decisions (allocations, role switches, pins, spills, recycles) to w
// as JSON lines.
func SimulateWithTrace(net *Network, cfg Config, s Strategy, w io.Writer) (RunStats, error) {
	rec := trace.NewJSONL(w)
	r, err := core.Simulate(net, cfg, s, rec)
	if err != nil {
		return r, err
	}
	if rec.Err() != nil {
		return r, fmt.Errorf("shortcutmining: trace: %w", rec.Err())
	}
	return r, nil
}

// SimulateFeatures runs with an explicit procedure set (the ablation
// entry point of experiment E8).
func SimulateFeatures(net *Network, cfg Config, f Features) (RunStats, error) {
	return core.SimulateFeatures(net, cfg, f, nil)
}

// VerifyFunctional pushes real activations through the logical-buffer
// machinery and checks them bit-exactly against a golden reference —
// proof that the procedures never lose or corrupt data. See
// examples/functional_check.
func VerifyFunctional(net *Network, cfg Config, f Features, seed int64) (RunStats, error) {
	return core.VerifyFunctional(net, cfg, f, seed)
}

// Characterize computes a network's shortcut structure (experiment
// E1's table).
func Characterize(net *Network, d DataType) Characteristics {
	return nn.Characterize(net, d)
}

// DecodeNetworkJSON reads a network from the JSON graph format (see
// the format comment in internal/nn and testdata/hourglass.json).
func DecodeNetworkJSON(r io.Reader) (*Network, error) { return nn.DecodeJSON(r) }

// EncodeNetworkJSON writes a network in the JSON graph format;
// decoding the output reproduces an identical network.
func EncodeNetworkJSON(w io.Writer, net *Network) error { return nn.EncodeJSON(w, net) }

// DecodeConfigJSON reads a platform configuration; omitted fields keep
// their calibrated defaults.
func DecodeConfigJSON(r io.Reader) (Config, error) { return core.DecodeConfigJSON(r) }

// EncodeConfigJSON writes a platform configuration.
func EncodeConfigJSON(w io.Writer, cfg Config) error { return core.EncodeConfigJSON(w, cfg) }

// Design-space exploration (cmd/scm-dse wraps the same machinery).
type (
	// DesignSpace is the enumeration grid for ExploreDesignSpace.
	DesignSpace = dse.Space
	// DesignOutcome is one evaluated platform candidate.
	DesignOutcome = dse.Outcome
)

// DefaultDesignSpace returns a grid of candidates around the
// calibrated platform.
func DefaultDesignSpace() DesignSpace { return dse.DefaultSpace() }

// ExploreDesignSpace evaluates every candidate in the space on the
// network (FPGA-feasibility-checked, simulated under Shortcut Mining).
func ExploreDesignSpace(net *Network, base Config, space DesignSpace) ([]DesignOutcome, error) {
	return dse.Explore(net, base, space, fpga.VC709())
}

// ExploreDesignSpaceContext is ExploreDesignSpace with explicit
// parallelism (<= 0 means GOMAXPROCS) and cooperative cancellation.
// Outcomes are indexed by grid position, so the result is identical to
// the serial enumeration regardless of parallelism.
func ExploreDesignSpaceContext(ctx context.Context, net *Network, base Config, space DesignSpace, parallel int) ([]DesignOutcome, error) {
	return dse.ExploreContext(ctx, net, base, space, fpga.VC709(), parallel)
}

// ParetoFront filters design outcomes to the non-dominated set over
// throughput (up), energy (down), and SRAM capacity (down).
func ParetoFront(outcomes []DesignOutcome) []DesignOutcome {
	return dse.ParetoFront(outcomes)
}

// ExperimentIDs lists the reproduction suite (E1–E25).
func ExperimentIDs() []string { return workload.IDs() }

// ExperimentInfo returns the title and paper anchor of a suite
// experiment without running it.
func ExperimentInfo(id string) (title, anchor string, err error) {
	e, err := workload.Get(id)
	if err != nil {
		return "", "", err
	}
	return e.Title, e.Anchor, nil
}

// RunExperiment executes one suite experiment on the default platform
// and returns its result (render it with Markdown).
func RunExperiment(id string) (ExperimentResult, error) {
	return RunExperimentWith(id, DefaultConfig())
}

// RunExperimentWith executes one suite experiment on a custom platform.
func RunExperimentWith(id string, cfg Config) (ExperimentResult, error) {
	e, err := workload.Get(id)
	if err != nil {
		return ExperimentResult{}, err
	}
	res, err := e.Run(cfg)
	if err != nil {
		return ExperimentResult{}, fmt.Errorf("shortcutmining: %s: %w", e.ID, err)
	}
	res.ID, res.Title, res.Anchor = e.ID, e.Title, e.Anchor
	return res, nil
}

// Multi-tenant scheduling: N request streams time-share one
// accelerator's bank pool at layer granularity (internal/sched).
type (
	// SchedSpec is a complete multi-tenant scheduling scenario.
	SchedSpec = sched.Spec
	// SchedStreamSpec describes one request stream in a SchedSpec.
	SchedStreamSpec = sched.StreamSpec
	// SchedResult is the per-stream QoS outcome of a scheduled run.
	SchedResult = sched.Result
)

// ParseSchedSpec reads the compact scheduling grammar, e.g.
// "seed=7;policy=prio;stream=resnet34:n=4,gap=1000000;stream=squeezenet:n=6,gap=300000,prio=2".
func ParseSchedSpec(s string) (*SchedSpec, error) { return sched.ParseSpec(s) }

// Schedule executes a multi-tenant scenario on the platform and
// returns per-stream QoS statistics.
func Schedule(cfg Config, spec *SchedSpec) (*SchedResult, error) {
	return sched.Run(cfg, spec, nil)
}

// ScheduleContext is Schedule with cooperative cancellation at layer
// granularity.
func ScheduleContext(ctx context.Context, cfg Config, spec *SchedSpec) (*SchedResult, error) {
	return sched.RunContext(ctx, cfg, spec, nil)
}

// Multi-chip sharded scheduling: a chips>1 scenario executes across N
// simulated chips joined by a contended interconnect cost model
// (internal/cluster + internal/noc).

// ClusterResult is the sharded outcome of a multi-chip scenario.
type ClusterResult = cluster.Result

// RunCluster executes a chips>1 scenario (spec carries chips=, topo=,
// place=, linkgbps=, hoplat= clauses) across simulated chips and
// returns the sharded outcome: per-request latencies, per-chip
// utilization, and the interconnect's link-level ledger.
func RunCluster(cfg Config, spec *SchedSpec) (*ClusterResult, error) {
	return cluster.Run(cfg, spec, nil, nil)
}

// RunClusterContext is RunCluster with cooperative cancellation at
// layer granularity.
func RunClusterContext(ctx context.Context, cfg Config, spec *SchedSpec) (*ClusterResult, error) {
	return cluster.RunContext(ctx, cfg, spec, nil, nil)
}
