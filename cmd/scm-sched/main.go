// Command scm-sched runs the multi-tenant scheduling simulator: N
// request streams (model-zoo networks with seeded arrival processes)
// time-share one accelerator's bank pool at layer granularity, and the
// per-stream QoS statistics come back as a table, JSON, or CSV.
//
// Usage:
//
//	scm-sched -spec "seed=7;policy=rr;quantum=4;stream=resnet34:n=4,gap=2000000;stream=squeezenet:n=6,gap=500000,poisson"
//	scm-sched -spec "policy=prio;stream=resnet34:n=2;stream=densechain:n=8,gap=300000,prio=3" -json
//	scm-sched -spec "..." -requests          # per-request timeline CSV
//	scm-sched -spec "..." -metrics           # Prometheus text page of scheduler metrics
//
// A chips>1 spec shards the scenario across N simulated chips joined by
// a contended interconnect (ring, mesh, or all-to-all links with
// configurable bandwidth and hop latency). Its result must reconcile,
// and the report adds per-chip utilization and the link-level ledger:
//
//	scm-sched -spec "seed=7;chips=4;topo=mesh;place=affinity;stream=resnet34:n=4,gap=2000000;stream=squeezenet:n=6,gap=500000,poisson"
//	scm-sched -spec "..." -links             # per-link occupancy/backpressure CSV
//	scm-sched -spec "..." -trace out.json    # Perfetto timeline with link-occupancy spans
package main

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"shortcutmining"

	"shortcutmining/internal/cluster"
	"shortcutmining/internal/jsonindent"
	"shortcutmining/internal/metrics"
	"shortcutmining/internal/sched"
	"shortcutmining/internal/trace"
)

// mode is the report the flags select; the first set flag in
// json, requests, links, csv order wins, the tables otherwise.
type mode struct {
	json, csv, requests, links bool
}

func main() {
	var (
		specStr  = flag.String("spec", "", "scheduling scenario (see ParseSchedSpec grammar; chips>1 shards it); required")
		config   = flag.String("config", "", "load the platform from a JSON config file")
		poolKiB  = flag.Int64("pool-kib", 0, "override feature-map pool capacity (KiB)")
		asJSON   = flag.Bool("json", false, "emit the full Result as JSON")
		asCSV    = flag.Bool("csv", false, "emit the per-stream QoS table as CSV")
		requests = flag.Bool("requests", false, "emit the per-request timeline as CSV")
		links    = flag.Bool("links", false, "chips>1 only: emit the per-link interconnect ledger as CSV")
		traceOut = flag.String("trace", "", "chips>1 only: write a Perfetto trace (link-occupancy spans) to this file")
		withMet  = flag.Bool("metrics", false, "print the scheduler metrics as a Prometheus text page")
	)
	flag.Parse()

	if *specStr == "" {
		fmt.Fprintln(os.Stderr, "scm-sched: -spec is required; example:")
		fmt.Fprintln(os.Stderr, `  scm-sched -spec "seed=7;policy=rr;stream=resnet34:n=4,gap=2000000;stream=squeezenet:n=6,gap=500000,poisson"`)
		os.Exit(2)
	}
	spec, err := shortcutmining.ParseSchedSpec(*specStr)
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
	var reg *metrics.Registry
	if *withMet {
		reg = metrics.New()
	}
	w := bufio.NewWriter(os.Stdout)
	err = report(w, cfg, spec, reg, mode{json: *asJSON, csv: *asCSV, requests: *requests, links: *links}, *traceOut)
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if err != nil {
		fatal(err)
	}
}

// report runs the scenario, through sched on one chip and through
// cluster on several, and writes the report m selects to w, followed
// by the metrics page when reg is set.
func report(w io.Writer, cfg shortcutmining.Config, spec *sched.Spec, reg *metrics.Registry, m mode, traceOut string) error {
	var err error
	switch {
	case spec.Chips > 1:
		err = runCluster(w, cfg, spec, reg, m, traceOut)
	case m.links || traceOut != "":
		return errors.New("-links and -trace report the chip interconnect; a one-chip spec has none (set chips>1)")
	default:
		err = runSched(w, cfg, spec, reg, m)
	}
	if err != nil || reg == nil {
		return err
	}
	return reg.WriteProm(w)
}

// runSched runs a one-chip scenario and prints its report.
func runSched(w io.Writer, cfg shortcutmining.Config, spec *sched.Spec, reg *metrics.Registry, m mode) error {
	res, err := sched.Run(cfg, spec, reg)
	if err != nil {
		return err
	}
	switch {
	case m.json:
		return jsonindent.Encode(w, res)
	case m.requests:
		fmt.Fprintln(w, "stream,seq,arrival,start,finish,latency,queue_wait,service_cycles,preemptions,spill_bytes,reload_bytes")
		for _, r := range res.Requests {
			fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
				r.Stream, r.Seq, r.Arrival, r.Start, r.Finish,
				r.Latency, r.QueueWait, r.ServiceCycles, r.Preemptions, r.SpillBytes, r.ReloadBytes)
		}
	case m.csv:
		fmt.Fprint(w, res.QoSTable().CSV())
	default:
		fmt.Fprint(w, res.QoSTable().Markdown())
		fmt.Fprintf(w, "\nmakespan: %.2f Mcycles, peak co-resident runs: %d, total tenancy traffic: %.2f MB\n",
			float64(res.MakespanCycles)/1e6, res.PeakResident, float64(res.TotalTenancyBytes())/1e6)
	}
	return nil
}

// runCluster runs a chips>1 scenario, checks that its ledgers
// reconcile, prints its report and writes the trace file if asked.
func runCluster(w io.Writer, cfg shortcutmining.Config, spec *sched.Spec, reg *metrics.Registry, m mode, traceOut string) error {
	var buf *trace.Buffer
	var rec trace.Recorder // stays a nil interface without -trace
	if traceOut != "" {
		buf = &trace.Buffer{}
		rec = buf
	}
	res, err := cluster.Run(cfg, spec, reg, rec)
	if err != nil {
		return err
	}
	if err := res.Reconcile(); err != nil {
		return fmt.Errorf("ledgers do not reconcile: %w", err)
	}
	switch {
	case m.json:
		if err := jsonindent.Encode(w, res); err != nil {
			return err
		}
	case m.requests:
		fmt.Fprintln(w, "stream,seq,arrival,start,finish,latency,queue_wait,service_cycles,crossings,interchip_bytes,shortcut_handoff_bytes,backpressure_cycles")
		for _, r := range res.Requests {
			fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
				r.Stream, r.Seq, r.Arrival, r.Start, r.Finish,
				r.Latency, r.QueueWait, r.ServiceCycles, r.Crossings,
				r.InterchipBytes, r.ShortcutHandoffBytes, r.BackpressureCycles)
		}
	case m.links:
		fmt.Fprintln(w, "link,transfers,bytes,busy_cycles,backpressure_cycles")
		for _, ln := range res.Noc.Links {
			fmt.Fprintf(w, "%s,%d,%d,%d,%d\n", ln.Name, ln.Transfers, ln.Bytes, ln.BusyCycles, ln.BackpressureCycles)
		}
	case m.csv:
		fmt.Fprint(w, res.Table().CSV())
	default:
		fmt.Fprint(w, res.Table().Markdown())
		fmt.Fprintln(w)
		fmt.Fprint(w, res.ChipTable().Markdown())
		fmt.Fprintf(w, "\n%d chips, %s topology, %s placement: makespan %.2f Mcycles, "+
			"interchip %.2f MB, noc backpressure %.2f Mcycles\n",
			res.Chips, res.Topology, res.Placement,
			float64(res.MakespanCycles)/1e6, float64(res.InterchipBytes)/1e6,
			float64(res.Noc.BackpressureCycles)/1e6)
	}
	if buf == nil {
		return nil
	}
	var b bytes.Buffer
	if err := trace.WritePerfetto(&b, buf.Events, cfg.PE.ClockMHz); err != nil {
		return err
	}
	if err := os.WriteFile(traceOut, b.Bytes(), 0o666); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "scm-sched: wrote %d trace events to %s\n", len(buf.Events), traceOut)
	return nil
}

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
	fmt.Fprintln(os.Stderr, "scm-sched:", err)
	os.Exit(1)
}
