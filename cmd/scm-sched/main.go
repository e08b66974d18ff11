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
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"shortcutmining"

	"shortcutmining/internal/jsonindent"
	"shortcutmining/internal/metrics"
	"shortcutmining/internal/sched"
)

func main() {
	var (
		specStr  = flag.String("spec", "", "scheduling scenario (see ParseSchedSpec grammar); required")
		config   = flag.String("config", "", "load the platform from a JSON config file")
		poolKiB  = flag.Int64("pool-kib", 0, "override feature-map pool capacity (KiB)")
		asJSON   = flag.Bool("json", false, "emit the full Result as JSON")
		asCSV    = flag.Bool("csv", false, "emit the per-stream QoS table as CSV")
		requests = flag.Bool("requests", false, "emit the per-request timeline as CSV")
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
	res, err := sched.Run(cfg, spec, reg)
	if err != nil {
		fatal(err)
	}

	switch {
	case *asJSON:
		if err := jsonindent.Encode(os.Stdout, res); err != nil {
			fatal(err)
		}
	case *requests:
		fmt.Println("stream,seq,arrival,start,finish,latency,queue_wait,service_cycles,preemptions,spill_bytes,reload_bytes")
		for _, r := range res.Requests {
			fmt.Printf("%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
				r.Stream, r.Seq, r.Arrival, r.Start, r.Finish,
				r.Latency, r.QueueWait, r.ServiceCycles, r.Preemptions, r.SpillBytes, r.ReloadBytes)
		}
	case *asCSV:
		fmt.Print(res.QoSTable().CSV())
	default:
		fmt.Print(res.QoSTable().Markdown())
		fmt.Printf("\nmakespan: %.2f Mcycles, peak co-resident runs: %d, total tenancy traffic: %.2f MB\n",
			float64(res.MakespanCycles)/1e6, res.PeakResident, float64(res.TotalTenancyBytes())/1e6)
	}
	if *withMet {
		w := bufio.NewWriter(os.Stdout)
		if err := reg.WriteProm(w); err != nil {
			fatal(err)
		}
		w.Flush()
	}
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
