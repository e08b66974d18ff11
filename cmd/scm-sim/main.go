// Command scm-sim runs one network through the accelerator simulator
// and prints the traffic, timing, and energy outcome, optionally
// comparing strategies.
//
// Usage:
//
//	scm-sim -net resnet34                         # all three strategies
//	scm-sim -net resnet152 -strategy scm          # one strategy, layer detail
//	scm-sim -net resnet34 -strategy scm -metrics  # Prometheus-style text page
//	scm-sim -net squeezenet-bypass -pool-kib 1024 -batch 4
//	scm-sim -graph mynet.json -config platform.json
//	scm-sim -list                                 # show the model zoo
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

	"shortcutmining"

	"shortcutmining/internal/core"
	"shortcutmining/internal/jsonindent"
	"shortcutmining/internal/metrics"
	"shortcutmining/internal/tensor"
)

func main() {
	var (
		netName   = flag.String("net", "resnet34", "model zoo network (see -list)")
		graph     = flag.String("graph", "", "load the network from a JSON graph file instead of -net")
		config    = flag.String("config", "", "load the platform from a JSON config file")
		strategy  = flag.String("strategy", "", "baseline | fm-reuse | scm (empty = compare all)")
		poolKiB   = flag.Int64("pool-kib", 0, "override feature-map pool capacity (KiB)")
		batch     = flag.Int("batch", 0, "batch size (0 = keep config value)")
		dtype     = flag.String("dtype", "", "fixed8 | fixed16 | float32 (default from config)")
		perLayer  = flag.Bool("layers", false, "print per-layer detail (single-strategy mode)")
		asJSON    = flag.Bool("json", false, "emit the RunStats as JSON (single-strategy mode)")
		withMet   = flag.Bool("metrics", false, "collect the metrics registry; prints a Prometheus-style text page (or embeds it in -json)")
		faults    = flag.String("faults", "", `fault-injection plan, e.g. "seed=42;bank-fail@4:n=3;dma-drop:p=0.05;bw-degrade@10:factor=0.5"`)
		compressF = flag.String("compress", "", `interlayer feature-map codec, e.g. "zvc:sparsity=0.5,enc=2,dec=2" or "fixed:ratio=2"`)
		list      = flag.Bool("list", false, "list available networks and exit")
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(shortcutmining.NetworkNames(), "\n"))
		return
	}
	net, err := loadNetwork(*netName, *graph)
	if err != nil {
		fatal(err)
	}
	cfg, err := loadConfig(*config)
	if err != nil {
		fatal(err)
	}
	if *poolKiB > 0 {
		cfg = cfg.WithPoolBytes(*poolKiB << 10)
	}
	if *batch > 0 {
		cfg.Batch = *batch
	}
	if *dtype != "" {
		d, err := tensor.ParseDataType(*dtype)
		if err != nil {
			fatal(err)
		}
		cfg.DType = d
	}
	if *faults != "" {
		spec, err := shortcutmining.ParseFaultSpec(*faults)
		if err != nil {
			fatal(err)
		}
		cfg.Faults = spec
	}
	if *compressF != "" {
		cc, err := shortcutmining.ParseCompressSpec(*compressF)
		if err != nil {
			fatal(err)
		}
		cfg.Compression = cc
	}

	if *strategy == "" {
		if *withMet {
			fatal(fmt.Errorf("-metrics needs a single strategy (add -strategy baseline|fm-reuse|scm)"))
		}
		compareAll(net, cfg)
		return
	}
	s, err := core.ParseStrategy(*strategy)
	if err != nil {
		fatal(err)
	}
	var reg *metrics.Registry
	if *withMet {
		reg = metrics.New()
	}
	r, err := core.SimulateObservedContext(context.Background(), net, cfg, s, nil, reg)
	if err != nil {
		fatal(err)
	}
	if *asJSON {
		if err := jsonindent.Encode(os.Stdout, r); err != nil {
			fatal(err)
		}
		return
	}
	if *withMet {
		w := bufio.NewWriter(os.Stdout)
		if err := reg.WriteProm(w); err != nil {
			fatal(err)
		}
		if err := w.Flush(); err != nil {
			fatal(err)
		}
		return
	}
	printRun(r)
	if *perLayer {
		printLayers(r)
	}
}

func compareAll(net *shortcutmining.Network, cfg shortcutmining.Config) {
	var base shortcutmining.RunStats
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "strategy\tfmap traffic\ttotal traffic\timg/s\tGOPS\treduction\tspeedup")
	for _, s := range core.Strategies() {
		r, err := shortcutmining.Simulate(net, cfg, s)
		if err != nil {
			fatal(err)
		}
		if s == core.Baseline {
			base = r
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%.2f\t%.1f\t%.1f%%\t%.2fx\n",
			r.Strategy,
			tensor.HumanBytes(r.FmapTrafficBytes()), tensor.HumanBytes(r.TotalTrafficBytes()),
			r.Throughput(), r.GOPS(),
			100*r.TrafficReductionVs(base), r.SpeedupVs(base))
	}
	w.Flush()
}

func printRun(r shortcutmining.RunStats) {
	fmt.Printf("network:        %s\n", r.Network)
	fmt.Printf("strategy:       %s\n", r.Strategy)
	fmt.Printf("batch:          %d\n", r.Batch)
	fmt.Printf("fmap traffic:   %s\n", tensor.HumanBytes(r.FmapTrafficBytes()))
	fmt.Printf("total traffic:  %s\n", tensor.HumanBytes(r.TotalTrafficBytes()))
	fmt.Printf("latency:        %.3f ms\n", 1e3*r.LatencySeconds())
	fmt.Printf("throughput:     %.2f img/s (%.1f GOPS)\n", r.Throughput(), r.GOPS())
	fmt.Printf("energy:         %.2f mJ (DRAM %.2f mJ)\n", r.Energy.TotalMJ(), r.Energy.DRAMPJ/1e9)
	fmt.Printf("peak banks:     %d used, %d pinned\n", r.PeakUsedBanks, r.PeakPinnedBanks)
	fmt.Printf("role switches:  %d, banks recycled: %d\n", r.RoleSwitches, r.BanksRecycled)
	if c := r.Compression; c != nil {
		fmt.Printf("compression:    %s — %s logical -> %s wire (%.2fx, %s saved), codec %d enc + %d dec cycles\n",
			c.Codec, tensor.HumanBytes(c.Logical.Total()), tensor.HumanBytes(c.Wire.Total()),
			c.Ratio(), tensor.HumanBytes(c.SavedBytes), c.EncodeCycles, c.DecodeCycles)
	}
	if f := r.Faults; f.Any() {
		fmt.Printf("faults:         %d bank failures (%d relocated, %s spilled), %d transients\n",
			f.BankFailures, f.Relocations, tensor.HumanBytes(f.FaultSpillBytes), f.TransientErrors)
		fmt.Printf("fault cycles:   %d migration, %d retry (%d retries, %s re-moved), %d degraded\n",
			f.MigrationCycles, f.DMARetryCycles, f.DMARetries, tensor.HumanBytes(f.RetryBytes), f.DegradedCycles)
	}
}

func printLayers(r shortcutmining.RunStats) {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "\nlayer\tkind\tcycles\tfmap bytes\treused\tretained\tspilled")
	for _, l := range r.Layers {
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\t%d\t%d\n",
			l.Name, l.Kind, l.Cycles, l.FmapBytes(), l.ReusedInputBytes, l.RetainedBytes, l.SpilledBytes)
	}
	w.Flush()
}

// loadNetwork resolves the -net / -graph flags.
func loadNetwork(name, graph string) (*shortcutmining.Network, error) {
	if graph == "" {
		return shortcutmining.BuildNetwork(name)
	}
	f, err := os.Open(graph)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return shortcutmining.DecodeNetworkJSON(f)
}

// loadConfig resolves the -config flag.
func loadConfig(path string) (shortcutmining.Config, error) {
	if path == "" {
		return shortcutmining.DefaultConfig(), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return shortcutmining.Config{}, err
	}
	defer f.Close()
	return shortcutmining.DecodeConfigJSON(f)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "scm-sim:", err)
	if re, ok := shortcutmining.AsRunError(err); ok && re.Severity == shortcutmining.Recoverable {
		fmt.Fprintln(os.Stderr, "scm-sim: the fault plan exceeded what graceful degradation can absorb; retry with a milder plan or a larger pool")
	}
	os.Exit(1)
}
