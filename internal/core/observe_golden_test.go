package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"shortcutmining/internal/compress"
	"shortcutmining/internal/fault"
	"shortcutmining/internal/metrics"
	"shortcutmining/internal/nn"
)

// observedGoldenPath pins the bytes an observed run exposes. The file
// has two parts. First, one entry per observedCases run:
//
//	=== <case name>
//	<compact JSON of RunStats.Metrics>
//	<Registry.WriteProm text>
//
// Then one line per zoo network × strategy observed at the default
// platform, on the grid_golden.txt pattern:
//
//	<network> <strategy> <Metrics JSON digest> <WriteProm digest>
var observedGoldenPath = filepath.Join("testdata", "observed_metrics.golden")

// observedCase is one fully pinned observed run.
type observedCase struct {
	name  string
	net   string
	strat Strategy
	cfg   func(*Config)
}

// observedCases cover every family an observed run can write: the
// three strategies, a run that never touches the pool, compression,
// every fault kind with DMA drops, and batch scaling with and without
// weight amortization.
var observedCases = []observedCase{
	{"resnet34/scm", "resnet34", SCM, nil},
	{"densenet121/fm-reuse", "densenet121", FMReuse, nil},
	{"squeezenet-bypass/baseline", "squeezenet-bypass", Baseline, nil},
	{"resnet34/scm compress=zvc:sparsity=0.5,enc=2,dec=2", "resnet34", SCM, func(c *Config) {
		cc, err := compress.ParseSpec("zvc:sparsity=0.5,enc=2,dec=2")
		if err != nil {
			panic(err)
		}
		c.Compression = cc
	}},
	{"resnet18/scm faults", "resnet18", SCM, func(c *Config) { c.Faults = faultMetricsSpec() }},
	{"resnet34/scm batch=4", "resnet34", SCM, func(c *Config) { c.Batch = 4 }},
	{"resnet34/scm batch=4 amortize", "resnet34", SCM, func(c *Config) {
		c.Batch = 4
		c.AmortizeWeights = true
	}},
}

// faultMetricsSpec injects all three fault kinds plus DMA drops
// (TestFaultMetricsAndTrace's spec).
func faultMetricsSpec() *fault.Spec {
	return &fault.Spec{
		Seed:     7,
		DropProb: 0.05,
		Events: []fault.Event{
			{Kind: fault.BankFail, Layer: 2, Count: 4},
			{Kind: fault.BankTransient, Layer: 3, Count: 2},
			{Kind: fault.BandwidthDegrade, Layer: 5, Factor: 0.75},
		},
	}
}

// observedBytes runs net observed and returns its compact Metrics JSON
// and its Prometheus text.
func observedBytes(t *testing.T, net *nn.Network, cfg Config, strat Strategy) (snap, prom []byte) {
	t.Helper()
	reg := metrics.New()
	r, err := SimulateObservedContext(context.Background(), net, cfg, strat, nil, reg)
	if err != nil {
		t.Fatalf("%s/%s: %v", net.Name, strat, err)
	}
	snap, err = json.Marshal(r.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	return snap, buf.Bytes()
}

// TestObservedMetricsGolden pins RunStats.Metrics and WriteProm byte
// for byte against testdata/observed_metrics.golden, so a change to
// how an observed run counts (live instruments or ledgers read at
// finish) has to prove it moved no exposed number and no family or
// series order. Regenerate with SCM_UPDATE_GOLDEN=1 only for a
// deliberate change of those bytes.
func TestObservedMetricsGolden(t *testing.T) {
	var out bytes.Buffer
	for _, c := range observedCases {
		cfg := Default()
		if c.cfg != nil {
			c.cfg(&cfg)
		}
		snap, prom := observedBytes(t, nn.MustBuild(c.net), cfg, c.strat)
		fmt.Fprintf(&out, "=== %s\n%s\n%s", c.name, snap, prom)
	}
	for _, name := range nn.ZooNames() {
		net := nn.MustBuild(name)
		for _, strat := range Strategies() {
			snap, prom := observedBytes(t, net, Default(), strat)
			fmt.Fprintf(&out, "%s %s %s %s\n", name, strat, digest(snap), digest(prom))
		}
	}
	if os.Getenv("SCM_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(observedGoldenPath, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", observedGoldenPath)
		return
	}
	want, err := os.ReadFile(observedGoldenPath)
	if err != nil {
		t.Fatalf("reading observed golden (run with SCM_UPDATE_GOLDEN=1 to create): %v", err)
	}
	if bytes.Equal(out.Bytes(), want) {
		return
	}
	got, wantLines := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	entry := ""
	drift := 0
	for i := 0; i < max(len(got), len(wantLines)); i++ {
		g, w := lineAt(got, i), lineAt(wantLines, i)
		if strings.HasPrefix(w, "=== ") {
			entry = w
		}
		if g != w {
			if drift++; drift <= 10 {
				t.Errorf("line %d (%s):\n got  %.200s\n want %.200s", i+1, entry, g, w)
			}
		}
	}
	t.Errorf("%d lines drifted (got %d lines, golden %d)", drift, len(got), len(wantLines))
}

func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<missing>"
}
