package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"shortcutmining"
)

// The specs of testdata/report.golden: two chips>1 scenarios, one with
// a codec, and a one-chip rr scenario.
const (
	affinitySpec = "seed=9;chips=3;topo=ring;place=affinity;stream=squeezenet:n=2,gap=300000"
	hashSpec     = "seed=9;chips=3;place=hash;compress=zvc:sparsity=0.5,enc=2,dec=2;stream=squeezenet:n=2,gap=300000"
	rrSpec       = "seed=5;policy=rr;quantum=4;stream=resnet34:n=2,gap=2000000;stream=squeezenet-bypass:n=3,gap=800000,poisson"
)

var reportCases = []struct {
	label, spec string
	m           mode
}{
	{"affinity", affinitySpec, mode{}},
	{"affinity -csv", affinitySpec, mode{csv: true}},
	{"affinity -requests", affinitySpec, mode{requests: true}},
	{"affinity -links", affinitySpec, mode{links: true}},
	{"hash+zvc", hashSpec, mode{}},
	{"hash+zvc -links", hashSpec, mode{links: true}},
	{"rr", rrSpec, mode{}},
	{"rr -csv", rrSpec, mode{csv: true}},
	{"rr -requests", rrSpec, mode{requests: true}},
}

// TestReportGolden pins the stdout of one- and multi-chip reports, so
// both scenario paths through the one CLI keep their bytes.
// Regenerate with SCM_UPDATE_GOLDEN=1 go test ./cmd/scm-sched/.
func TestReportGolden(t *testing.T) {
	var got bytes.Buffer
	for _, tc := range reportCases {
		spec, err := shortcutmining.ParseSchedSpec(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "== %s ==\n", tc.label)
		if err := report(&got, shortcutmining.DefaultConfig(), spec, nil, tc.m, ""); err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
	}
	golden := filepath.Join("testdata", "report.golden")
	if os.Getenv("SCM_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading %s (regenerate with SCM_UPDATE_GOLDEN=1): %v", golden, err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("report output diverged from %s\n got:\n%s\nwant:\n%s", golden, got.Bytes(), want)
	}
}

// TestInterconnectFlagsNeedChips: -links and -trace on a one-chip spec
// fail before anything runs or any file is written.
func TestInterconnectFlagsNeedChips(t *testing.T) {
	spec, err := shortcutmining.ParseSchedSpec("seed=1;stream=densechain:n=1")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	for _, tc := range []struct {
		m        mode
		traceOut string
	}{{mode{links: true}, ""}, {mode{}, path}} {
		var out bytes.Buffer
		err := report(&out, shortcutmining.DefaultConfig(), spec, nil, tc.m, tc.traceOut)
		if err == nil || !strings.Contains(err.Error(), "chips>1") {
			t.Errorf("links=%t trace=%q: err = %v, want a chips>1 error", tc.m.links, tc.traceOut, err)
		}
		if out.Len() != 0 {
			t.Errorf("links=%t: wrote %q before failing", tc.m.links, out.String())
		}
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("trace file exists after a refused one-chip -trace: %v", err)
	}
}
