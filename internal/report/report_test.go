package report

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"shortcutmining/internal/core"
	"shortcutmining/internal/workload"
)

func TestReductionVerdict(t *testing.T) {
	cases := []struct {
		measured, claimed float64
		want              string
	}{
		{0.535, 0.533, "match"},
		{0.43, 0.43, "match"},
		{0.688, 0.58, "overshoot by 11 pp"},
		{0.40, 0.58, "undershoot by 18 pp"},
	}
	for _, c := range cases {
		got := reductionVerdict(c.measured, c.claimed)
		if !strings.Contains(got, c.want) {
			t.Errorf("reductionVerdict(%.3f, %.3f) = %q, want contains %q", c.measured, c.claimed, got, c.want)
		}
	}
}

func TestSpeedupVerdict(t *testing.T) {
	if got := speedupVerdict(1.85, 1.93); !strings.Contains(got, "match") {
		t.Errorf("1.85 vs 1.93 = %q", got)
	}
	if got := speedupVerdict(1.30, 1.93); !strings.Contains(got, "direction holds") {
		t.Errorf("1.30 vs 1.93 = %q", got)
	}
	if got := speedupVerdict(0.9, 1.93); !strings.Contains(got, "NOT reproduced") {
		t.Errorf("0.9 vs 1.93 = %q", got)
	}
}

// anchorResults runs the four experiments the scorecard reads.
func anchorResults(t *testing.T) []workload.Result {
	t.Helper()
	var results []workload.Result
	for _, id := range []string{"E1", "E3", "E4", "E9"} {
		e, err := workload.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(core.Default())
		if err != nil {
			t.Fatal(err)
		}
		res.ID = e.ID
		results = append(results, res)
	}
	return results
}

func TestScorecardOnDefaultPlatform(t *testing.T) {
	rows, err := Scorecard(anchorResults(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("scorecard rows = %d", len(rows))
	}
	// On the calibrated platform, SqueezeNet and ResNet-152 match and
	// the span claim holds exactly.
	byClaim := map[string]Row{}
	for _, r := range rows {
		byClaim[r.Claim] = r
	}
	for _, name := range []string{"squeezenet-bypass", "resnet152"} {
		r := byClaim[name+" feature-map traffic reduction"]
		if r.Verdict != "match" {
			t.Errorf("%s verdict = %q, want match", name, r.Verdict)
		}
	}
	if r := byClaim["Throughput vs state-of-the-art baseline"]; !strings.Contains(r.Verdict, "match") {
		t.Errorf("speedup verdict = %q", r.Verdict)
	}
	if r := byClaim["Shortcut reuse across any number of intermediate layers without extra buffers"]; !strings.Contains(r.Verdict, "match") {
		t.Errorf("span verdict = %q", r.Verdict)
	}
}

// TestScorecardNeedsAnchorResults: a suite result set without one of
// the anchor experiments is an error, not a row of zeros.
func TestScorecardNeedsAnchorResults(t *testing.T) {
	if _, err := Scorecard(nil); err == nil || !strings.Contains(err.Error(), "E1") {
		t.Errorf("Scorecard without E1: err = %v", err)
	}
}

// TestGenerateFullDocument checks the committed EXPERIMENTS.md for the
// document's sections and every registered experiment;
// TestExperimentsFresh pins those bytes to a fresh Generate.
func TestGenerateFullDocument(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	doc := string(b)
	for _, want := range []string{
		"# EXPERIMENTS",
		"## Headline scorecard",
		"## Suite output (generated)",
		"## E1 —", "## E9 —", "## E19 —", "## E23 —", "## E24 —",
		"53.3%", "1.93×",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("document missing %q", want)
		}
	}
	// Every registered experiment appears.
	if got := strings.Count(doc, "*Paper anchor:*"); got != 25 {
		t.Errorf("document has %d experiments, want 25", got)
	}
}

// TestExperimentsFresh byte-compares the committed EXPERIMENTS.md with
// a fresh Generate on more than one worker, the path scm-exp -report
// takes, so no experiment table or note drifts silently. Regenerate
// with `go run ./cmd/scm-exp -report > EXPERIMENTS.md`.
func TestExperimentsFresh(t *testing.T) {
	var buf bytes.Buffer
	if err := Generate(&buf, core.Default(), 4); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(buf.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("EXPERIMENTS.md is stale at line %d (regenerate with go run ./cmd/scm-exp -report > EXPERIMENTS.md):\n got: %.400s\nwant: %.400s", i+1, g, w)
		}
	}
}
