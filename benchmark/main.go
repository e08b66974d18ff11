package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
		seed     = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = flag.Int("seconds", 20, "timed seconds per trial (a traced run splits them between its untraced and traced halves)")
		traceArg = flag.Int("trace", 0, "1 for a traced run, which reports the per-layer metrics instead of the end-to-end ones")
		spans    = flag.String("spans", "", "where a traced run writes its Chrome trace (default scm-bench-spans-<workload>.json in the temp dir)")
		out      = flag.String("o", "", "also write the full report to this file")
		compare  = flag.String("compare", "", "comma-separated base reports; the new reports follow as the argument")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	var err error
	ok := true
	switch {
	case *compare != "":
		if flag.NArg() != 1 {
			err = fmt.Errorf("-compare base1.json,base2.json,... wants the new reports as one comma-separated argument")
			break
		}
		ok, err = compareFiles(os.Stdout, os.Stderr, "BENCHMARK.json", strings.Split(*compare, ","), strings.Split(flag.Arg(0), ","))
	case *traceArg != 0 && *traceArg != 1:
		err = fmt.Errorf("-trace is 0 or 1, not %d", *traceArg)
	default:
		o := options{workload: *workload, seed: *seed, window: time.Duration(*seconds) * time.Second, traced: *traceArg == 1, spans: *spans}
		if o.spans == "" {
			o.spans = filepath.Join(os.TempDir(), "scm-bench-spans-"+o.workload+".json")
		}
		ok, err = trial(ctx, o, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "scm-bench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// trial runs one invocation, prints every metric and the result line,
// and reports whether every output check passed.
func trial(ctx context.Context, o options, out string) (bool, error) {
	if o.window <= 0 {
		return false, fmt.Errorf("-seconds must be positive")
	}
	rep, err := run(ctx, o)
	if err != nil {
		return false, fmt.Errorf("%s: %w", o.workload, err)
	}
	if out != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	rep.writeText(os.Stdout)
	if o.traced {
		fmt.Fprintf(os.Stdout, "  spans: %s\n", o.spans)
	}
	line, err := rep.resultLine()
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return rep.Correct, nil
}
