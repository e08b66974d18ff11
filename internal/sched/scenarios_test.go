package sched_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"shortcutmining/internal/cluster"
	"shortcutmining/internal/core"
	"shortcutmining/internal/metrics"
	"shortcutmining/internal/sched"
	"shortcutmining/internal/trace"
)

// testdata/scenarios.golden pins the bytes every scenario produces:
// the json.Marshal of the Result, the metrics snapshot of a fresh
// registry, and for multi-chip runs the count and byte sum of the
// interconnect's link-occupancy trace spans. It was captured once and
// is compared byte for byte; -update rewrites it and is only for a
// deliberate change of those bytes.
var update = flag.Bool("update", false, "rewrite testdata/scenarios.golden instead of comparing")

// goldenSingleChip covers every single-chip policy and clause.
var goldenSingleChip = []string{
	"seed=3;policy=fcfs;stream=densechain:n=4,gap=1000;stream=squeezenet:n=2,gap=1000,strategy=baseline",
	"seed=11;policy=rr;quantum=3;stream=squeezenet-bypass:n=3,gap=100000;" +
		"stream=densechain:n=4,gap=80000,poisson;stream=squeezenet:n=2,start=50000,strategy=fmreuse",
	"seed=5;policy=prio;stream=resnet18:n=1,name=bulk;" +
		"stream=densechain:n=2,gap=200000,start=100000,prio=5,name=vip;stream=densechain:n=2,gap=150000,prio=2",
	"seed=2;policy=rr;quantum=1;maxresident=1;stream=densechain:n=2;stream=squeezenet:n=2;stream=squeezenet-bypass:n=1",
	"seed=9;policy=fcfs;stream=densechain:n=3,banks=1000;stream=squeezenet:n=2",
	"seed=5;policy=rr;quantum=4;compress=fixed:ratio=2,enc=1,dec=1;" +
		"stream=squeezenet:n=2,gap=300000;stream=densechain:n=2,gap=100000",
}

// goldenE24Streams is E24's fixed sharded scenario (internal/workload).
const goldenE24Streams = "stream=resnet34:n=3,gap=400000,name=resnet;" +
	"stream=squeezenet-bypass:n=5,gap=150000,poisson,name=bypass"

// goldenMultiChip covers the nine E24 cells plus the default topology
// and placement, hash placement on three chips, and compression.
func goldenMultiChip() []string {
	var out []string
	for _, topo := range []string{"ring", "mesh", "all"} {
		for _, place := range []string{"hash", "leastload", "affinity"} {
			out = append(out, fmt.Sprintf("seed=24;chips=4;topo=%s;place=%s;%s", topo, place, goldenE24Streams))
		}
	}
	return append(out,
		"seed=9;chips=2;stream=squeezenet:n=2,gap=300000;stream=densechain:n=2,gap=100000",
		"seed=5;chips=3;place=hash;stream=squeezenet:n=2,gap=300000",
		"seed=11;chips=3;place=affinity;compress=zvc:sparsity=0.5,enc=2,dec=2;"+
			"stream=squeezenet:n=3,gap=500000;stream=resnet34:n=2,gap=800000,poisson",
	)
}

func TestScenariosGolden(t *testing.T) {
	cfg := core.Default()
	var out bytes.Buffer
	write := func(label string, v any) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "--- %s\n%s\n", label, b)
	}
	for _, s := range goldenSingleChip {
		spec, err := sched.ParseSpec(s)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", s, err)
		}
		reg := metrics.New()
		res, err := sched.Run(cfg, spec, reg)
		if err != nil {
			t.Fatalf("sched.Run(%q): %v", s, err)
		}
		fmt.Fprintf(&out, "=== sched %s\n", s)
		write("result", res)
		write("metrics", reg.Snapshot())
	}
	for _, s := range goldenMultiChip() {
		spec, err := sched.ParseSpec(s)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", s, err)
		}
		reg := metrics.New()
		var buf trace.Buffer
		res, err := cluster.Run(cfg, spec, reg, &buf)
		if err != nil {
			t.Fatalf("cluster.Run(%q): %v", s, err)
		}
		if err := res.Reconcile(); err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		var spanBytes int64
		links := buf.OfKind(trace.KindLink)
		for _, e := range links {
			spanBytes += e.Bytes
		}
		fmt.Fprintf(&out, "=== cluster %s\n", s)
		write("result", res)
		write("metrics", reg.Snapshot())
		fmt.Fprintf(&out, "--- link spans %d bytes %d\n", len(links), spanBytes)
	}
	checkGolden(t, "scenarios.golden", out.Bytes())
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s differs at line %d:\n got: %.600s\nwant: %.600s", path, i+1, g, w)
		}
	}
}
