package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"shortcutmining/internal/bench"
	"shortcutmining/internal/nn"
)

// Metric directions, as BENCHMARK.json spells them.
const (
	higher = "higher"
	lower  = "lower"
)

// metricDef declares one reported metric.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics every untraced trial reports; BENCHMARK.json
// gives each its regression bound.
var endToEnd = []metricDef{
	{"ops_per_s", "op/s", higher},
	{"op_ms_p50", "ms", lower},
	{"op_ms_p99", "ms", lower},
	{"setup_s", "s", lower},
	{"alloc_kb_per_op", "KiB", lower},
	{"heap_live_mb", "MiB", lower},
}

// stepKinds are the layer kinds whose Step cost the traced run
// reports; every workload's networks contain each of them before their
// last layer. A network's last Step, which also assembles the result,
// is core.finish_us; that is where every fc layer of the zoo runs.
var stepKinds = []nn.OpKind{
	nn.OpInput, nn.OpConv, nn.OpPool, nn.OpGlobalPool,
	nn.OpEltwiseAdd, nn.OpConcat, nn.OpShuffle,
}

// perLayer are the metrics every traced run reports.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"core.validate_us", "us", lower},
		{"core.new_run_us", "us", lower},
		{"core.finish_us", "us", lower},
	}
	for _, k := range stepKinds {
		defs = append(defs, metricDef{"core.step_ns." + k.String(), "ns", lower})
	}
	return append(defs,
		metricDef{"core.layers_per_s", "layer/s", higher},
		metricDef{"core.allocs_per_layer", "alloc/layer", lower},
		metricDef{"core.observed_overhead_ratio", "ratio", lower},
		metricDef{"core.traced_overhead_ratio", "ratio", lower},
		metricDef{"nn.build_us", "us", lower},
		metricDef{"nn.decode_us", "us", lower},
		metricDef{"serve.key_us", "us", lower},
		metricDef{"serve.config_decode_us", "us", lower},
		metricDef{"serve.encode_us", "us", lower},
		metricDef{"serve.cache_hit_ratio", "ratio", higher},
		metricDef{"serve.rejected_ratio", "ratio", lower},
		metricDef{"serve.polls_per_job", "poll/op", lower},
		metricDef{"journal.append_us_p50", "us", lower},
		metricDef{"journal.append_us_p99", "us", lower},
		metricDef{"journal.recover_ms", "ms", lower},
		metricDef{"dse.sweep_ms", "ms", lower},
		metricDef{"sched.run_ms", "ms", lower},
		metricDef{"cluster.run_ms", "ms", lower},
		metricDef{"runtime.gc_cpu_fraction", "ratio", lower},
		metricDef{"runtime.gc_pause_ms_p99", "ms", lower},
		metricDef{"bench.residual_us", "us", lower},
		metricDef{"bench.trace_overhead_ratio", "ratio", lower},
	)
}()

// schema names the report layout written by -o.
const schema = "scm-bench/2"

// Metric is one measured value.
type Metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

// Layer summarizes the spans of one name in a traced run.
type Layer struct {
	Name      string  `json:"name"`
	Count     int     `json:"count"`
	P50US     float64 `json:"p50_us"`
	P99US     float64 `json:"p99_us"`
	SelfP50US float64 `json:"self_p50_us"`
}

// Report is one trial of one workload (the -o file, and the input of
// -compare). Slices are sorted by name so reports diff cleanly.
type Report struct {
	Schema   string     `json:"schema"`
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Seconds  float64    `json:"seconds"`
	Traced   bool       `json:"traced"`
	Host     bench.Host `json:"host"`
	Correct  bool       `json:"correct"`
	// Attempted counts timed ops, one latency sample each; Failed those
	// that errored, were refused, or returned a wrong output.
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	// ReferenceRate and SetupReferenceRate are the reference kernel's
	// rates between the segments of a trial's timed window and before
	// its set-ups; the trial's timings are scaled by rate/refNominal
	// (see reference.go).
	ReferenceRate      float64  `json:"reference_rate,omitempty"`
	SetupReferenceRate float64  `json:"setup_reference_rate,omitempty"`
	Errors             []string `json:"errors,omitempty"`
	Metrics            []Metric `json:"metrics"`
	Layers             []Layer  `json:"layers,omitempty"`
}

// metric looks a metric up by name.
func (r *Report) metric(name string) (Metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// setMetrics fills r.Metrics from values, one per declared metric, and
// fails if any declared metric was not measured.
func (r *Report) setMetrics(defs []metricDef, values map[string]float64) error {
	r.Metrics = r.Metrics[:0]
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v)
		}
		r.Metrics = append(r.Metrics, Metric{Name: d.Name, Unit: d.Unit, Value: v})
	}
	sort.Slice(r.Metrics, func(i, j int) bool { return r.Metrics[i].Name < r.Metrics[j].Name })
	return nil
}

// writeText prints every metric by name with its unit.
func (r *Report) writeText(w io.Writer) {
	mode := "trial"
	if r.Traced {
		mode = "traced run"
	}
	fmt.Fprintf(w, "scm-bench %s: workload %s, seed %d, %.0f s, %d ops timed, %d failed\n",
		mode, r.Workload, r.Seed, r.Seconds, r.Attempted, r.Failed)
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
}

// resultLine is the one-line JSON summary printed last on stdout.
func (r *Report) resultLine() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(r.Metrics))
	for _, m := range r.Metrics {
		metrics[m.Name] = value{m.Value, m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
}

// quantile is the nearest-rank q-quantile of sorted samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// sortedCopy returns xs sorted ascending, leaving xs alone.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
