package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"shortcutmining/internal/bench"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) in Python 3.
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{5, 1, 9}, 1, 5, 9},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		name   string
		next   []float64
		better string
		want   string
	}{
		{"within bound", []float64{98, 99, 100, 99, 101}, higher, verdictSame},
		{"throughput fell", []float64{80, 81, 79, 80, 82}, higher, verdictWorse},
		{"latency fell", []float64{80, 81, 79, 80, 82}, lower, verdictBetter},
		{"noisy new runs", []float64{60, 140, 100, 70, 130}, higher, verdictUnresolved},
		{"noisy but every run better", []float64{150, 230, 190, 160, 220}, higher, verdictBetter},
	} {
		if got, _ := judge(base, tc.next, tc.better, 0.10); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

// writeReport writes a synthetic end-to-end report and returns its path.
func writeReport(t *testing.T, dir string, workload string, n int, values map[string]float64, host bench.Host) string {
	t.Helper()
	r := &Report{Schema: schema, Workload: workload, Seed: int64(n), Seconds: 20, Host: host,
		Correct: true, Attempted: 1000}
	if err := r.setMetrics(endToEnd, values); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d.json", workload, n))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	host := bench.CurrentHost()
	var base, same, slower []string
	for n := range 5 {
		v := map[string]float64{
			"ops_per_s": 1000 + float64(n), "op_ms_p50": 1, "op_ms_p99": 5,
			"setup_s": 0.1, "alloc_kb_per_op": 100, "heap_live_mb": 10,
		}
		base = append(base, writeReport(t, dir, "sim-sweep", n, v, host))
		same = append(same, writeReport(t, dir, "sim-sweep", 10+n, v, host))
		v["ops_per_s"] = 700 + float64(n)
		slower = append(slower, writeReport(t, dir, "sim-sweep", 20+n, v, host))
	}
	spec := filepath.Join("..", "BENCHMARK.json")

	var out, warn bytes.Buffer
	ok, err := compareFiles(&out, &warn, spec, base, same)
	if err != nil || !ok {
		t.Fatalf("identical sets: ok=%v err=%v\n%s", ok, err, out.String())
	}
	if strings.Contains(out.String(), verdictWorse) || strings.Contains(out.String(), verdictUnresolved) || warn.Len() > 0 {
		t.Fatalf("identical sets should compare the same, with no warning:\n%s%s", out.String(), warn.String())
	}

	out.Reset()
	ok, err = compareFiles(&out, &warn, spec, base, slower)
	if err != nil || ok {
		t.Fatalf("a 30%% throughput drop must fail the gate: ok=%v err=%v\n%s", ok, err, out.String())
	}
	if !regexp.MustCompile(`sim-sweep +ops_per_s .* worse`).MatchString(out.String()) {
		t.Fatalf("no worse verdict for ops_per_s:\n%s", out.String())
	}

	other := host
	other.CPUs++
	moved := []string{writeReport(t, dir, "sim-sweep", 30, map[string]float64{
		"ops_per_s": 1000, "op_ms_p50": 1, "op_ms_p99": 5, "setup_s": 0.1, "alloc_kb_per_op": 100, "heap_live_mb": 10,
	}, other)}
	warn.Reset()
	if _, err := compareFiles(&out, &warn, spec, base, moved); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(warn.String(), "different hosts") {
		t.Fatalf("reports from two hosts should warn, got %q", warn.String())
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metrics the
// code emits in step: the same names, units and directions, a positive
// bound on each end-to-end metric, and names of at most 64 letters,
// digits, '_', '.' and '-'.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or repeated", n)
		}
		seen[n] = true
	}
	var wl []string
	for _, w := range spec.Workloads {
		check(w.Name)
		wl = append(wl, w.Name)
	}
	if strings.Join(wl, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, code %v", wl, workloadNames)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, the code emits %d", len(spec.EndToEnd), len(endToEnd))
	}
	for k, m := range spec.EndToEnd {
		check(m.Name)
		if d := endToEnd[k]; d != (metricDef{m.Name, m.Unit, m.Better}) {
			t.Errorf("end_to_end[%d] is %+v, the code emits %+v", k, m, d)
		}
		if m.Bound <= 0 {
			t.Errorf("%s: bound %v is not positive", m.Name, m.Bound)
		}
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the metrics the traced run emits:\n%v\n%v", spec.PerLayer, perLayer)
	}
	for _, m := range spec.PerLayer {
		check(m.Name)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"benchmark"}) || spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", spec.Paths, spec.RunSeconds)
	}
}
