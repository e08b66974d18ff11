// Command scm-exp regenerates the paper's tables and figures
// (experiments E1–E25; see DESIGN.md for the index). -report prints
// EXPERIMENTS.md: the paper-vs-measured scorecard followed by the
// whole suite's output.
//
// Usage:
//
//	scm-exp               # run the whole suite, markdown to stdout
//	scm-exp -e E3         # one experiment
//	scm-exp -e E6 -csv    # machine-readable tables
//	scm-exp -pool-kib 1024
//	scm-exp -report > EXPERIMENTS.md   # rewrite the committed document
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"shortcutmining"

	"shortcutmining/internal/report"
	"shortcutmining/internal/serve/pool"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scm-exp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		id       = fs.String("e", "", "experiment ID (E1–E25); empty runs the whole suite")
		csv      = fs.Bool("csv", false, "emit CSV instead of markdown")
		poolKiB  = fs.Int64("pool-kib", 0, "override feature-map pool capacity (KiB)")
		list     = fs.Bool("list", false, "list experiment IDs and titles")
		parallel = fs.Int("parallel", 1, "experiments run concurrently (0 = GOMAXPROCS); output stays in ID order")
		doc      = fs.Bool("report", false, "print EXPERIMENTS.md: the scorecard and the whole suite on the default platform")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *doc && (*id != "" || *csv || *list || *poolKiB > 0) {
		fmt.Fprintln(stderr, "scm-exp: -report prints the whole suite on the default platform; drop -e, -csv, -list and -pool-kib")
		return 2
	}
	w := bufio.NewWriter(stdout)
	err := exp(w, *id, *csv, *poolKiB, *list, *parallel, *doc)
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if err != nil {
		fmt.Fprintln(stderr, "scm-exp:", err)
		return 1
	}
	return 0
}

// exp writes the report the flags select to w.
func exp(w io.Writer, id string, csv bool, poolKiB int64, list bool, parallel int, doc bool) error {
	if list {
		for _, eid := range shortcutmining.ExperimentIDs() {
			title, _, err := shortcutmining.ExperimentInfo(eid)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-4s %s\n", eid, title)
		}
		return nil
	}

	if doc {
		return report.Generate(w, shortcutmining.DefaultConfig(), parallel)
	}

	cfg := shortcutmining.DefaultConfig()
	if poolKiB > 0 {
		cfg = cfg.WithPoolBytes(poolKiB << 10)
	}

	ids := shortcutmining.ExperimentIDs()
	if id != "" {
		ids = []string{id}
	}

	// Experiments are independent, so they fan out across the worker
	// goroutines; results are collected by index and printed in ID
	// order, making the output identical to the serial run.
	results := make([]shortcutmining.ExperimentResult, len(ids))
	err := pool.ForEachN(context.Background(), parallel, len(ids), func(i int) error {
		res, err := shortcutmining.RunExperimentWith(ids[i], cfg)
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return err
	}

	for _, res := range results {
		if csv {
			for _, t := range res.Tables {
				fmt.Fprintf(w, "# %s: %s\n%s\n", res.ID, t.Title, t.CSV())
			}
			continue
		}
		fmt.Fprintln(w, res.Markdown())
	}
	return nil
}
