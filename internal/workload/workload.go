// Package workload defines the experiment suite E1–E25 that
// regenerates every table and figure of the evaluation (see DESIGN.md
// for the per-experiment index and the paper anchors). The same
// registry backs the scm-exp CLI, the root benchmark suite, and the
// public RunExperiment API; EXPERIMENTS.md records its output against
// the paper's numbers.
package workload

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"shortcutmining/internal/core"
	"shortcutmining/internal/nn"
	"shortcutmining/internal/stats"
)

// Result is the rendered outcome of one experiment.
type Result struct {
	ID     string
	Title  string
	Anchor string // the paper claim the experiment reproduces
	Tables []*stats.Table
	// Charts are pre-rendered ASCII figures (sweep curves) included in
	// the markdown as fenced blocks.
	Charts []string
	Notes  []string
	// Metrics are the headline scalars, for benchmarks and tests.
	Metrics map[string]float64
}

// Markdown renders the result for EXPERIMENTS.md / CLI output.
func (r Result) Markdown() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "## %s — %s\n\n", r.ID, r.Title)
	fmt.Fprintf(&sb, "*Paper anchor:* %s\n\n", r.Anchor)
	for _, t := range r.Tables {
		sb.WriteString(t.Markdown())
		sb.WriteString("\n")
	}
	for _, c := range r.Charts {
		sb.WriteString("```\n" + c + "```\n\n")
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "%s\n\n", n)
	}
	return sb.String()
}

// Experiment is one reproducible unit of the evaluation.
type Experiment struct {
	ID     string
	Title  string
	Anchor string
	Run    func(cfg core.Config) (Result, error)
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns the experiments in suite order.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return idNum(out[i].ID) < idNum(out[j].ID) })
	return out
}

func idNum(id string) int {
	n := 0
	if _, err := fmt.Sscanf(id, "E%d", &n); err != nil {
		return 0 // malformed IDs sort first, together
	}
	return n
}

// Get finds an experiment by ID (case-insensitive).
func Get(id string) (Experiment, error) {
	for _, e := range registry {
		if strings.EqualFold(e.ID, id) {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("workload: unknown experiment %q (have E1–E%d)", id, len(registry))
}

// IDs returns the experiment IDs in suite order.
func IDs() []string {
	all := All()
	out := make([]string, len(all))
	for i, e := range all {
		out[i] = e.ID
	}
	return out
}

// simulate is a convenience wrapper that fails an experiment loudly.
func simulate(name string, cfg core.Config, s core.Strategy) (stats.RunStats, error) {
	net, err := nn.Build(name)
	if err != nil {
		return stats.RunStats{}, err
	}
	return core.Simulate(net, cfg, s, nil)
}

// baselineAndSCM simulates net under the two design points most
// experiments compare: the baseline and full Shortcut Mining.
func baselineAndSCM(net *nn.Network, cfg core.Config) (base, scm stats.RunStats, err error) {
	if base, err = core.Simulate(net, cfg, core.Baseline, nil); err != nil {
		return base, scm, err
	}
	scm, err = core.Simulate(net, cfg, core.SCM, nil)
	return base, scm, err
}

// geomean computes the geometric mean of positive values.
func geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	p := 1.0
	for _, v := range vals {
		p *= v
	}
	return math.Pow(p, 1/float64(len(vals)))
}

// Anchor is one of the abstract's traffic-reduction claims: a headline
// network and the fraction of its feature-map traffic that Shortcut
// Mining removes.
type Anchor struct {
	Network   string
	Reduction float64 // fraction
}

// PaperSpeedup is the abstract's geomean throughput claim over the
// baseline.
const PaperSpeedup = 1.93

// headline is the one table of the abstract's traffic-reduction
// claims, in the order the experiments and the scorecard list them.
// PaperTarget and the EXPERIMENTS.md scorecard read it through
// Headline.
var headline = []Anchor{
	{"squeezenet-bypass", 0.533},
	{"resnet34", 0.58},
	{"resnet152", 0.43},
}

// Headline returns the abstract's traffic-reduction claims in table
// order.
func Headline() []Anchor { return append([]Anchor(nil), headline...) }
