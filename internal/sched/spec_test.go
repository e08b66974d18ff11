package sched

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"shortcutmining/internal/core"
)

func TestParseSpec(t *testing.T) {
	spec, err := ParseSpec("seed=42;policy=rr;quantum=4;maxresident=2;" +
		"stream=resnet34:n=8,gap=2000000,poisson,prio=3,strategy=baseline,banks=10,start=100,name=vip;" +
		"stream=squeezenet:n=2")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if spec.Seed != 42 || spec.Policy != RoundRobin || spec.QuantumLayers != 4 || spec.MaxResident != 2 {
		t.Errorf("header fields: %+v", spec)
	}
	st := spec.Streams[0]
	want := StreamSpec{Name: "vip", Network: "resnet34", Strategy: core.Baseline,
		Requests: 8, GapCycles: 2000000, StartCycles: 100, Poisson: true, Priority: 3, MinBanks: 10}
	if st != want {
		t.Errorf("stream 0:\n got %+v\nwant %+v", st, want)
	}
	if st := spec.Streams[1]; st.Network != "squeezenet" || st.Requests != 2 || st.Strategy != core.SCM {
		t.Errorf("stream 1 defaults: %+v", st)
	}
}

func TestSpecRoundTrip(t *testing.T) {
	in := "seed=7;policy=prio;maxresident=3;" +
		"stream=resnet34:n=4,gap=1000000;" +
		"stream=squeezenet:n=6,gap=300000,poisson,prio=2,strategy=fmreuse,name=bg"
	spec, err := ParseSpec(in)
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	again, err := ParseSpec(spec.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", spec.String(), err)
	}
	if spec.String() != again.String() {
		t.Errorf("spec does not round-trip:\n first %s\nsecond %s", spec.String(), again.String())
	}
}

func TestSpecClusterClauses(t *testing.T) {
	in := "seed=3;chips=4;topo=mesh;place=affinity;linkgbps=8.5;hoplat=32;" +
		"stream=resnet34:n=2;stream=squeezenet:n=2"
	spec, err := ParseSpec(in)
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if spec.Chips != 4 || spec.Topology != "mesh" || spec.Placement != "affinity" ||
		spec.LinkGBps != 8.5 || spec.HopLatency != 32 {
		t.Fatalf("cluster fields not parsed: %+v", spec)
	}
	again, err := ParseSpec(spec.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", spec.String(), err)
	}
	if spec.String() != again.String() {
		t.Errorf("cluster spec does not round-trip:\n first %s\nsecond %s", spec.String(), again.String())
	}
	// Single-chip specs render without cluster clauses.
	single, err := ParseSpec("stream=vgg16:n=1")
	if err != nil {
		t.Fatal(err)
	}
	if s := single.String(); strings.Contains(s, "chips=") {
		t.Errorf("single-chip spec leaked cluster clauses: %s", s)
	}
}

func TestRunRejectsMultiChip(t *testing.T) {
	spec, err := ParseSpec("chips=2;stream=squeezenet:n=1")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if _, err := Run(core.Default(), spec, nil); err == nil {
		t.Fatal("sched.Run accepted a chips>1 spec; cluster owns those")
	}
}

// badSpecs must all fail to parse.
var badSpecs = []string{
	"chips=-1;stream=vgg16:",              // negative chips
	"chips=999;stream=vgg16:",             // over chip cap
	"chips=2;topo=torus;stream=vgg16:",    // unknown topology
	"chips=2;place=random;stream=vgg16:",  // unknown placement
	"chips=2;linkgbps=-4;stream=vgg16:",   // negative bandwidth
	"chips=2;hoplat=-1;stream=vgg16:",     // negative hop latency
	"topo=ring;stream=vgg16:",             // topo without chips
	"place=affinity;stream=vgg16:",        // place without chips
	"chips=2;linkgbps=abc;stream=vgg16:",  // bad float
	"chips=two;stream=vgg16:",             // bad int
	"",                                    // no streams
	"policy=lifo;stream=vgg16:",           // unknown policy
	"stream=:n=2",                         // empty network
	"stream=vgg16:n=0",                    // zero requests
	"stream=vgg16:n=x",                    // bad int
	"stream=vgg16:bogus",                  // unknown flag
	"stream=vgg16:wat=1",                  // unknown parameter
	"quantum=-1;stream=vgg16:",            // negative quantum
	"turbo=1;stream=vgg16:",               // unknown clause
	"seed",                                // clause without =
	"stream=vgg16:n=9999999",              // over request cap
	"chips=2;policy=prio;stream=vgg16:",   // policy with chips
	"chips=2;quantum=3;stream=vgg16:",     // quantum with chips
	"chips=2;maxresident=1;stream=vgg16:", // maxresident with chips
	"chips=2;stream=vgg16:prio=4",         // stream priority with chips
	"chips=2;stream=vgg16:banks=100000",   // stream bank demand with chips
}

func TestParseSpecErrors(t *testing.T) {
	for _, bad := range badSpecs {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q): want error, got nil", bad)
		}
	}
}

// TestValidateStrategy: a structured spec (the JSON scenario body)
// names strategies by number, so Validate must refuse unknown ones.
func TestValidateStrategy(t *testing.T) {
	for _, strat := range []core.Strategy{core.Baseline, core.FMReuse, core.SCM} {
		spec := &Spec{Seed: 1, Streams: []StreamSpec{{Network: "squeezenet", Requests: 1, Strategy: strat}}}
		if err := spec.Validate(); err != nil {
			t.Errorf("strategy %s: %v", strat, err)
		}
	}
	for _, strat := range []core.Strategy{-1, 3, 99} {
		spec := &Spec{Seed: 1, Streams: []StreamSpec{{Network: "squeezenet", Requests: 1, Strategy: strat}}}
		if err := spec.Validate(); err == nil {
			t.Errorf("strategy %d: want error, got nil", int(strat))
		}
	}
}

// FuzzParseSpec parses only and never runs a spec: parsing never
// panics, and every accepted spec round-trips — ParseSpec(s.String())
// succeeds and renders the same String(). Seeds are the spec strings
// of this package's tests, including every scenario in
// testdata/scenarios.golden.
func FuzzParseSpec(f *testing.F) {
	seeds := append([]string{
		contended,
		"seed=42;policy=rr;quantum=4;maxresident=2;stream=resnet34:n=8,gap=2000000,poisson,prio=3,strategy=baseline,banks=10,start=100,name=vip;stream=squeezenet:n=2",
		"seed=7;policy=prio;maxresident=3;stream=resnet34:n=4,gap=1000000;stream=squeezenet:n=6,gap=300000,poisson,prio=2,strategy=fmreuse,name=bg",
		"seed=3;chips=4;topo=mesh;place=affinity;linkgbps=8.5;hoplat=32;stream=resnet34:n=2;stream=squeezenet:n=2",
		"seed=5;chips=3;place=hash;compress=zvc:sparsity=0.5,enc=2,dec=2;stream=squeezenet:n=2,gap=300000",
	}, badSpecs...)
	golden, err := os.ReadFile(filepath.Join("testdata", "scenarios.golden"))
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range strings.Split(string(golden), "\n") {
		for _, prefix := range []string{"=== sched ", "=== cluster "} {
			if spec, ok := strings.CutPrefix(line, prefix); ok {
				seeds = append(seeds, spec)
			}
		}
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseSpec(s)
		if err != nil {
			return
		}
		again, err := ParseSpec(spec.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q) renders %q, which does not re-parse: %v", s, spec.String(), err)
		}
		if got, want := again.String(), spec.String(); got != want {
			t.Fatalf("ParseSpec(%q) does not round-trip:\n first %s\nsecond %s", s, want, got)
		}
	})
}

func TestPolicyNames(t *testing.T) {
	for _, p := range []Policy{FCFS, RoundRobin, Priority} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("sjf"); err == nil {
		t.Error("ParsePolicy(sjf): want error")
	}
}

func TestStreamNames(t *testing.T) {
	spec := &Spec{Streams: []StreamSpec{
		{Network: "resnet34"}, {Network: "resnet34"}, {Network: "vgg16", Name: "vip"}, {Network: "vgg16"},
	}}
	got := spec.streamNames()
	want := []string{"resnet34", "resnet34#2", "vip", "vgg16"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("streamNames = %v, want %v", got, want)
	}
}

func TestQuantiles(t *testing.T) {
	if q := quantiles(nil); q != (Quantiles{}) {
		t.Errorf("empty quantiles = %+v", q)
	}
	vals := make([]int64, 100)
	for i := range vals {
		vals[i] = int64(100 - i) // reverse order: quantiles must sort
	}
	q := quantiles(vals)
	if q.P50 != 50 || q.P95 != 95 || q.P99 != 99 {
		t.Errorf("quantiles = %+v, want 50/95/99", q)
	}
}
