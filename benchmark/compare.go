package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"shortcutmining/internal/bench"
)

// benchmarkSpec is BENCHMARK.json: the workloads, and every metric
// with its unit, direction and (end-to-end only) regression bound.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(path string) (*benchmarkSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// Verdicts of -compare.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(xs, n=4) computes them.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	m := len(s)
	switch m {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// judge compares the new runs of one metric against the base runs. A
// spread wider than the bound on either side leaves the pair
// unresolved, unless every new run beats every base run.
func judge(base, next []float64, better string, bound float64) (verdict string, change float64) {
	_, mb, _ := quartiles(base)
	_, mn, _ := quartiles(next)
	if mb != 0 {
		change = (mn - mb) / mb // positive: the metric rose
	}
	worsening := change
	if better == higher {
		worsening = -change
	}
	dominates := true
	for _, b := range base {
		for _, n := range next {
			if (better == higher && n <= b) || (better == lower && n >= b) {
				dominates = false
			}
		}
	}
	switch {
	case max(spread(base), spread(next)) > bound && !dominates:
		return verdictUnresolved, change
	case worsening > bound:
		return verdictWorse, change
	case -worsening > bound || dominates:
		return verdictBetter, change
	}
	return verdictSame, change
}

// compareFiles prints, per (workload, metric), both sides' median and
// quartiles and, for the bounded end-to-end metrics, a verdict. ok is
// false when any verdict is worse.
func compareFiles(w, warn io.Writer, specPath string, basePaths, nextPaths []string) (ok bool, err error) {
	spec, err := loadSpec(specPath)
	if err != nil {
		return false, err
	}
	base, err := readReports(basePaths)
	if err != nil {
		return false, err
	}
	next, err := readReports(nextPaths)
	if err != nil {
		return false, err
	}
	hosts := map[bench.Host]bool{}
	for _, r := range append(append([]*Report(nil), base...), next...) {
		hosts[r.Host] = true
	}
	if len(hosts) > 1 {
		fmt.Fprintf(warn, "scm-bench: warning: the reports come from %d different hosts; timings may not compare\n", len(hosts))
	}

	type row struct {
		name, better string
		bound        float64
		bounded      bool
	}
	var rows []row
	for _, m := range spec.EndToEnd {
		rows = append(rows, row{m.Name, m.Better, m.Bound, true})
	}
	for _, m := range spec.PerLayer {
		rows = append(rows, row{m.Name, m.Better, 0, false})
	}
	ok = true
	fmt.Fprintf(w, "%-14s %-30s %36s %36s %8s  %s\n", "workload", "metric", "base median [q1, q3] (n)", "new median [q1, q3] (n)", "change", "verdict")
	for _, wl := range spec.Workloads {
		for _, rw := range rows {
			b, n := values(base, wl.Name, rw.name), values(next, wl.Name, rw.name)
			if len(b) == 0 || len(n) == 0 {
				continue
			}
			verdict, change := judge(b, n, rw.better, rw.bound)
			if !rw.bounded {
				verdict = "(no bound)"
			}
			if verdict == verdictWorse {
				ok = false
			}
			fmt.Fprintf(w, "%-14s %-30s %36s %36s %+7.1f%%  %s\n", wl.Name, rw.name, summary(b), summary(n), 100*change, verdict)
		}
	}
	return ok, nil
}

func summary(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", q2, q1, q3, len(xs))
}

// values collects one metric of one workload across reports.
func values(reports []*Report, workload, metric string) []float64 {
	var out []float64
	for _, r := range reports {
		if r.Workload != workload {
			continue
		}
		if m, ok := r.metric(metric); ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func readReports(paths []string) ([]*Report, error) {
	var out []*Report
	for _, p := range paths {
		r, err := readReport(p)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

func readReport(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := r.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// validate checks a report's internal consistency.
func (r *Report) validate() error {
	if r.Schema != schema {
		return fmt.Errorf("schema %q, this tool reads %q", r.Schema, schema)
	}
	if _, err := newPlan(r.Workload, r.Seed); err != nil {
		return err
	}
	if r.Attempted < 1 || r.Failed < 0 || r.Failed > r.Attempted {
		return fmt.Errorf("inconsistent op counts: attempted %d, failed %d", r.Attempted, r.Failed)
	}
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	if len(r.Metrics) != len(defs) {
		return fmt.Errorf("%d metrics, want %d", len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := r.metric(d.Name)
		if !ok {
			return fmt.Errorf("metric %s missing", d.Name)
		}
		if m.Unit != d.Unit {
			return fmt.Errorf("metric %s has unit %q, want %q", d.Name, m.Unit, d.Unit)
		}
	}
	if !sort.SliceIsSorted(r.Metrics, func(i, j int) bool { return r.Metrics[i].Name < r.Metrics[j].Name }) {
		return fmt.Errorf("metrics are not sorted by name")
	}
	return nil
}
