// Command scm-sim runs one network through the accelerator simulator
// and prints the traffic, timing, and energy outcome, optionally
// comparing strategies. A single-strategy run can instead print its
// buffer-management event stream — logical buffer formation, role
// switches, pins, spills, refills, bank recycling — or write it as a
// Perfetto trace for ui.perfetto.dev.
//
// Usage:
//
//	scm-sim -net resnet34                         # all three strategies
//	scm-sim -net resnet152 -strategy scm -layers  # one strategy, layer detail
//	scm-sim -net resnet34 -strategy scm -metrics  # Prometheus-style text page
//	scm-sim -net squeezenet-bypass -pool-kib 1024 -batch 4
//	scm-sim -graph mynet.json -config platform.json
//	scm-sim -net resnet34 -strategy scm -events jsonl      # events as JSON lines
//	scm-sim -net resnet34 -strategy scm -events summary    # kind × layer counts
//	scm-sim -net resnet152 -strategy scm -kinds pin,spill,recycle -events text
//	scm-sim -net resnet34 -strategy scm -trace trace.json  # Perfetto file ("-" = stdout)
//	scm-sim -list                                 # the model zoo's shortcut structure
//	scm-sim -list -layers -net resnet34           # one network's layer listing
package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"text/tabwriter"

	"shortcutmining"

	"shortcutmining/internal/core"
	"shortcutmining/internal/jsonindent"
	"shortcutmining/internal/metrics"
	"shortcutmining/internal/tensor"
	"shortcutmining/internal/trace"
)

// options are the parsed flags.
type options struct {
	net, graph, config, strategy string
	poolKiB                      int64
	batch                        int
	dtype, faults, compress      string
	layers, json, metrics, list  bool
	events, kinds, trace         string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scm-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.net, "net", "resnet34", "model zoo network (see -list)")
	fs.StringVar(&o.graph, "graph", "", "load the network from a JSON graph file instead of -net")
	fs.StringVar(&o.config, "config", "", "load the platform from a JSON config file")
	fs.StringVar(&o.strategy, "strategy", "", "baseline | fm-reuse | scm (empty = compare all)")
	fs.Int64Var(&o.poolKiB, "pool-kib", 0, "override feature-map pool capacity (KiB)")
	fs.IntVar(&o.batch, "batch", 0, "batch size (0 = keep config value)")
	fs.StringVar(&o.dtype, "dtype", "", "fixed8 | fixed16 | float32 (default from config)")
	fs.BoolVar(&o.layers, "layers", false, "print per-layer detail (single-strategy mode); with -list, the network's layer listing")
	fs.BoolVar(&o.json, "json", false, "emit the RunStats as JSON (single-strategy mode)")
	fs.BoolVar(&o.metrics, "metrics", false, "collect the metrics registry; prints a Prometheus-style text page (or embeds it in -json)")
	fs.StringVar(&o.faults, "faults", "", `fault-injection plan, e.g. "seed=42;bank-fail@4:n=3;dma-drop:p=0.05;bw-degrade@10:factor=0.5"`)
	fs.StringVar(&o.compress, "compress", "", `interlayer feature-map codec, e.g. "zvc:sparsity=0.5,enc=2,dec=2" or "fixed:ratio=2"`)
	fs.BoolVar(&o.list, "list", false, "print the model zoo's shortcut structure (with -layers, one network's layers) and exit")
	fs.StringVar(&o.events, "events", "", "print the run's event stream instead of its summary: jsonl | text | summary | occupancy")
	fs.StringVar(&o.kinds, "kinds", "", "comma-separated event kinds kept by -events and -trace (default all)")
	fs.StringVar(&o.trace, "trace", "", `write the run's events as a Perfetto trace to this file ("-" = stdout)`)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := o.check(); err != nil {
		fmt.Fprintln(stderr, "scm-sim:", err)
		return 2
	}
	w := bufio.NewWriter(stdout)
	err := sim(w, o)
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if err != nil {
		fmt.Fprintln(stderr, "scm-sim:", err)
		if re, ok := shortcutmining.AsRunError(err); ok && re.Severity == shortcutmining.Recoverable {
			fmt.Fprintln(stderr, "scm-sim: the fault plan exceeded what graceful degradation can absorb; retry with a milder plan or a larger pool")
		}
		return 1
	}
	return 0
}

// check rejects flag combinations that select no single report, before
// anything is loaded or run.
func (o options) check() error {
	if o.list {
		return nil
	}
	if o.strategy == "" {
		switch {
		case o.metrics:
			return errors.New("-metrics needs a single strategy (add -strategy baseline|fm-reuse|scm)")
		case o.events != "" || o.trace != "" || o.kinds != "":
			return errors.New("-events, -kinds and -trace record a single run (add -strategy baseline|fm-reuse|scm)")
		}
	}
	switch o.events {
	case "", "jsonl", "text", "summary", "occupancy":
	default:
		return fmt.Errorf("-events %q: want jsonl, text, summary or occupancy", o.events)
	}
	switch {
	case o.events != "" && (o.json || o.metrics || o.layers):
		return errors.New("-events replaces the run summary; drop -json, -metrics and -layers")
	case o.trace == "-" && (o.events != "" || o.json || o.metrics || o.layers):
		return errors.New(`-trace - writes the trace to stdout; drop -events, -json, -metrics and -layers`)
	case o.kinds != "" && o.events == "" && o.trace == "":
		return errors.New("-kinds filters the events of -events or -trace")
	}
	known := trace.Kinds()
	for _, k := range strings.Split(o.kinds, ",") {
		if k = strings.TrimSpace(k); k != "" && !slices.Contains(known, trace.Kind(k)) {
			return fmt.Errorf("-kinds: unknown event kind %q; known kinds: %v", k, known)
		}
	}
	return nil
}

// sim writes the report the options select to w.
func sim(w io.Writer, o options) error {
	if o.list && !o.layers {
		return writeCatalog(w)
	}
	net, err := loadNetwork(o.net, o.graph)
	if err != nil {
		return err
	}
	if o.list {
		return writeLayers(w, net)
	}
	cfg, err := loadConfig(o.config)
	if err != nil {
		return err
	}
	if o.poolKiB > 0 {
		cfg = cfg.WithPoolBytes(o.poolKiB << 10)
	}
	if o.batch > 0 {
		cfg.Batch = o.batch
	}
	if o.dtype != "" {
		d, err := tensor.ParseDataType(o.dtype)
		if err != nil {
			return err
		}
		cfg.DType = d
	}
	if o.faults != "" {
		spec, err := shortcutmining.ParseFaultSpec(o.faults)
		if err != nil {
			return err
		}
		cfg.Faults = spec
	}
	if o.compress != "" {
		cc, err := shortcutmining.ParseCompressSpec(o.compress)
		if err != nil {
			return err
		}
		cfg.Compression = cc
	}

	if o.strategy == "" {
		return compareAll(w, net, cfg)
	}
	s, err := core.ParseStrategy(o.strategy)
	if err != nil {
		return err
	}
	var reg *metrics.Registry
	if o.metrics {
		reg = metrics.New()
	}
	var buf *trace.Buffer
	var rec trace.Recorder // stays a nil interface without -events or -trace
	if o.events != "" || o.trace != "" {
		buf = &trace.Buffer{}
		rec = buf
	}
	r, err := core.SimulateObservedContext(context.Background(), net, cfg, s, rec, reg)
	if err != nil {
		return err
	}
	if buf != nil {
		events := keepKinds(buf.Events, o.kinds)
		if o.trace != "" {
			if err := writeTrace(w, o.trace, events, cfg.PE.ClockMHz); err != nil {
				return err
			}
		}
		if o.events != "" {
			return writeEvents(w, o.events, events, cfg.Pool.NumBanks)
		}
		if o.trace == "-" {
			return nil
		}
	}
	switch {
	case o.json:
		return jsonindent.Encode(w, r)
	case o.metrics:
		return reg.WriteProm(w)
	}
	printRun(w, r)
	if o.layers {
		printLayers(w, r)
	}
	return nil
}

func compareAll(out io.Writer, net *shortcutmining.Network, cfg shortcutmining.Config) error {
	var base shortcutmining.RunStats
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "strategy\tfmap traffic\ttotal traffic\timg/s\tGOPS\treduction\tspeedup")
	for _, s := range core.Strategies() {
		r, err := shortcutmining.Simulate(net, cfg, s)
		if err != nil {
			return err
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
	return w.Flush()
}

func printRun(w io.Writer, r shortcutmining.RunStats) {
	fmt.Fprintf(w, "network:        %s\n", r.Network)
	fmt.Fprintf(w, "strategy:       %s\n", r.Strategy)
	fmt.Fprintf(w, "batch:          %d\n", r.Batch)
	fmt.Fprintf(w, "fmap traffic:   %s\n", tensor.HumanBytes(r.FmapTrafficBytes()))
	fmt.Fprintf(w, "total traffic:  %s\n", tensor.HumanBytes(r.TotalTrafficBytes()))
	fmt.Fprintf(w, "latency:        %.3f ms\n", 1e3*r.LatencySeconds())
	fmt.Fprintf(w, "throughput:     %.2f img/s (%.1f GOPS)\n", r.Throughput(), r.GOPS())
	fmt.Fprintf(w, "energy:         %.2f mJ (DRAM %.2f mJ)\n", r.Energy.TotalMJ(), r.Energy.DRAMPJ/1e9)
	fmt.Fprintf(w, "peak banks:     %d used, %d pinned\n", r.PeakUsedBanks, r.PeakPinnedBanks)
	fmt.Fprintf(w, "role switches:  %d, banks recycled: %d\n", r.RoleSwitches, r.BanksRecycled)
	if c := r.Compression; c != nil {
		fmt.Fprintf(w, "compression:    %s — %s logical -> %s wire (%.2fx, %s saved), codec %d enc + %d dec cycles\n",
			c.Codec, tensor.HumanBytes(c.Logical.Total()), tensor.HumanBytes(c.Wire.Total()),
			c.Ratio(), tensor.HumanBytes(c.SavedBytes), c.EncodeCycles, c.DecodeCycles)
	}
	if f := r.Faults; f.Any() {
		fmt.Fprintf(w, "faults:         %d bank failures (%d relocated, %s spilled), %d transients\n",
			f.BankFailures, f.Relocations, tensor.HumanBytes(f.FaultSpillBytes), f.TransientErrors)
		fmt.Fprintf(w, "fault cycles:   %d migration, %d retry (%d retries, %s re-moved), %d degraded\n",
			f.MigrationCycles, f.DMARetryCycles, f.DMARetries, tensor.HumanBytes(f.RetryBytes), f.DegradedCycles)
	}
}

func printLayers(out io.Writer, r shortcutmining.RunStats) {
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "\nlayer\tkind\tcycles\tfmap bytes\treused\tretained\tspilled")
	for _, l := range r.Layers {
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\t%d\t%d\n",
			l.Name, l.Kind, l.Cycles, l.FmapBytes(), l.ReusedInputBytes, l.RetainedBytes, l.SpilledBytes)
	}
	w.Flush()
}

// writeCatalog renders the zoo characteristics table (the motivation
// numbers of experiment E1). The output is deterministic (sorted
// network names, fixed formatting) and pinned by the golden-file test.
func writeCatalog(out io.Writer) error {
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "network\tconv\tfc\tshortcut edges\tmax span\tMACs (G)\tparams (M)\tshortcut share")
	for _, name := range shortcutmining.NetworkNames() {
		net, err := shortcutmining.BuildNetwork(name)
		if err != nil {
			return err
		}
		ch := shortcutmining.Characterize(net, shortcutmining.Fixed16)
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%.2f\t%.2f\t%.1f%%\n",
			name, ch.ConvLayers, ch.FCLayers, ch.ShortcutEdges, ch.MaxSpan,
			float64(ch.TotalMACs)/1e9, float64(ch.TotalWeightsBytes)/2e6,
			100*ch.ShortcutShare)
	}
	return w.Flush()
}

// writeLayers renders one network's layer-by-layer listing.
func writeLayers(out io.Writer, net *shortcutmining.Network) error {
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "#\tlayer\tkind\tstage\tinputs\toutput\tMACs")
	for _, l := range net.Layers {
		fmt.Fprintf(w, "%d\t%s\t%s\t%s\t%v\t%v\t%d\n",
			l.Index, l.Name, l.Kind, l.Stage, l.Inputs, l.Out, l.MACs())
	}
	return w.Flush()
}

// keepKinds filters events to the comma-separated kinds; an empty list
// keeps them all.
func keepKinds(events []trace.Event, kinds string) []trace.Event {
	keep := map[trace.Kind]bool{}
	for _, k := range strings.Split(kinds, ",") {
		if k = strings.TrimSpace(k); k != "" {
			keep[trace.Kind(k)] = true
		}
	}
	if len(keep) == 0 {
		return events
	}
	kept := events[:0]
	for _, e := range events {
		if keep[e.Kind] {
			kept = append(kept, e)
		}
	}
	return kept
}

// writeTrace writes the events as Perfetto trace_event JSON to path,
// or to w when path is "-".
func writeTrace(w io.Writer, path string, events []trace.Event, clockMHz float64) error {
	if path == "-" {
		return trace.WritePerfetto(w, events, clockMHz)
	}
	var b bytes.Buffer
	if err := trace.WritePerfetto(&b, events, clockMHz); err != nil {
		return err
	}
	return os.WriteFile(path, b.Bytes(), 0o666)
}

// writeEvents renders the event stream in one of the -events forms.
func writeEvents(out io.Writer, form string, events []trace.Event, banks int) error {
	switch form {
	case "text":
		for _, e := range events {
			fmt.Fprintln(out, trace.Describe(e))
		}
	case "summary":
		s := trace.Summarize(events)
		w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		header := []string{"layer"}
		for _, k := range s.Kinds {
			header = append(header, string(k))
		}
		fmt.Fprintln(w, strings.Join(header, "\t"))
		for _, layer := range s.Layers {
			name := layer
			if name == "" {
				name = "(none)"
			}
			row := []string{name}
			for _, k := range s.Kinds {
				row = append(row, fmt.Sprintf("%d", s.Counts[layer][k]))
			}
			fmt.Fprintln(w, strings.Join(row, "\t"))
		}
		return w.Flush()
	case "occupancy":
		for _, p := range trace.Timeline(events) {
			bars := 0
			if banks > 0 {
				bars = p.UsedBanks * 40 / banks
			}
			fmt.Fprintf(out, "%-24s |%-40s| %2d/%d banks\n", p.Layer, strings.Repeat("#", bars), p.UsedBanks, banks)
		}
	default: // jsonl
		// The JSONL recorder's write errors are sticky; return them so
		// a broken pipe or full disk exits non-zero.
		jsonl := trace.NewJSONL(out)
		for _, e := range events {
			jsonl.Record(e)
		}
		return jsonl.Err()
	}
	return nil
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
