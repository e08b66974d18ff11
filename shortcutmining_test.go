package shortcutmining

import (
	"bytes"
	"context"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	net, err := BuildNetwork("resnet34")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	base, err := Simulate(net, cfg, Baseline)
	if err != nil {
		t.Fatal(err)
	}
	scm, err := Simulate(net, cfg, SCM)
	if err != nil {
		t.Fatal(err)
	}
	if red := scm.TrafficReductionVs(base); red <= 0.4 {
		t.Errorf("reduction = %.2f, expected the headline regime", red)
	}
	if sp := scm.SpeedupVs(base); sp <= 1.2 {
		t.Errorf("speedup = %.2f", sp)
	}
}

func TestNetworkCatalog(t *testing.T) {
	names := NetworkNames()
	if len(names) < 8 {
		t.Fatalf("catalog too small: %v", names)
	}
	for _, h := range HeadlineNetworks() {
		found := false
		for _, n := range names {
			if n == h {
				found = true
			}
		}
		if !found {
			t.Errorf("headline network %q missing from catalog", h)
		}
	}
	if _, err := BuildNetwork("not-a-net"); err == nil {
		t.Error("unknown network accepted")
	}
}

func TestCustomNetworkThroughPublicAPI(t *testing.T) {
	b := NewNetworkBuilder("custom", Shape{C: 8, H: 16, W: 16})
	x := b.Conv("c1", b.InputName(), 8, 3, 1, 1)
	y := b.Conv("c2", x, 8, 3, 1, 1)
	b.Add("add", x, y)
	net, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Simulate(net, DefaultConfig(), SCM)
	if err != nil {
		t.Fatal(err)
	}
	if r.FmapTrafficBytes() <= 0 {
		t.Error("no traffic recorded")
	}
	ch := Characterize(net, Fixed16)
	if ch.ShortcutEdges != 1 {
		t.Errorf("shortcut edges = %d", ch.ShortcutEdges)
	}
}

func TestParameterizedBuilders(t *testing.T) {
	if _, err := BuildResNet(101); err != nil {
		t.Error(err)
	}
	if _, err := BuildShortcutSpanNet(4, 2, 8, 16); err != nil {
		t.Error(err)
	}
	if _, err := BuildDenseChain(4, 8, 14); err != nil {
		t.Error(err)
	}
}

func TestSimulateWithTrace(t *testing.T) {
	net, err := BuildNetwork("squeezenet-bypass")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := SimulateWithTrace(net, DefaultConfig(), SCM, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"kind":"pin"`, `"kind":"role-switch"`, `"kind":"layer-start"`} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %s", want)
		}
	}
}

func TestSimulateFeaturesAblation(t *testing.T) {
	net, err := BuildNetwork("resnet18")
	if err != nil {
		t.Fatal(err)
	}
	r, err := SimulateFeatures(net, DefaultConfig(), Features{RoleSwitch: true, PartialRetention: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Strategy, "fm-reuse") {
		t.Errorf("strategy label = %q", r.Strategy)
	}
}

func TestVerifyFunctionalPublic(t *testing.T) {
	net, err := BuildShortcutSpanNet(3, 2, 8, 12)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg = cfg.WithPoolBytes(32 << 10)
	if _, err := VerifyFunctional(net, cfg, SCM.Features(), 1); err != nil {
		t.Fatal(err)
	}
}

func TestRunExperimentPublic(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != 25 {
		t.Fatalf("experiment ids = %v", ids)
	}
	res, err := RunExperiment("E9")
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "E9" || len(res.Tables) == 0 {
		t.Errorf("result = %+v", res)
	}
	if !strings.Contains(res.Markdown(), "intermediate layers") {
		t.Error("markdown missing table content")
	}
	if _, err := RunExperiment("E42"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestFusedComparisonRefusesBatch pins that E17 refuses a batch it
// cannot model on the fused side instead of comparing a batch-scaled
// SCM run with a one-image fused run.
func TestFusedComparisonRefusesBatch(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Batch = 4
	_, err := RunExperimentWith("E17", cfg)
	if err == nil || !strings.Contains(err.Error(), "batch 4") {
		t.Errorf("E17 at batch 4: err = %v, want a batch refusal", err)
	}
}

func TestJSONCodecsPublic(t *testing.T) {
	f, err := os.Open("testdata/hourglass.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	net, err := DecodeNetworkJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	if net.Name != "hourglass-json" {
		t.Errorf("name = %q", net.Name)
	}
	r, err := Simulate(net, DefaultConfig(), SCM)
	if err != nil {
		t.Fatal(err)
	}
	if r.FmapTrafficBytes() <= 0 {
		t.Error("no traffic")
	}
	var buf bytes.Buffer
	if err := EncodeNetworkJSON(&buf, net); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeNetworkJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Layers) != len(net.Layers) {
		t.Error("round trip changed the graph")
	}

	var cbuf bytes.Buffer
	cfg := DefaultConfig()
	cfg.Batch = 7
	if err := EncodeConfigJSON(&cbuf, cfg); err != nil {
		t.Fatal(err)
	}
	cback, err := DecodeConfigJSON(&cbuf)
	if err != nil {
		t.Fatal(err)
	}
	if cback.Batch != 7 {
		t.Errorf("config round trip batch = %d", cback.Batch)
	}
}

func TestExperimentInfo(t *testing.T) {
	title, anchor, err := ExperimentInfo("E3")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(title, "traffic") || !strings.Contains(anchor, "53.3%") {
		t.Errorf("info = %q / %q", title, anchor)
	}
	if _, _, err := ExperimentInfo("E99"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestDesignSpacePublicAPI(t *testing.T) {
	net, err := BuildNetwork("resnet18")
	if err != nil {
		t.Fatal(err)
	}
	space := DesignSpace{
		Banks:    []int{16, 34},
		BankKiB:  []int{16},
		PE:       [][2]int{{32, 32}},
		FmapGBps: []float64{1.0},
	}
	outcomes, err := ExploreDesignSpace(net, DefaultConfig(), space)
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != 2 {
		t.Fatalf("outcomes = %d", len(outcomes))
	}
	front := ParetoFront(outcomes)
	if len(front) == 0 {
		t.Fatal("empty frontier")
	}
	if DefaultDesignSpace().Size() == 0 {
		t.Error("empty default space")
	}
}

func TestFaultInjectionPublic(t *testing.T) {
	spec, err := ParseFaultSpec("seed=3;bank-fail@2:n=4;dma-drop:p=0.05")
	if err != nil {
		t.Fatal(err)
	}
	net, err := BuildNetwork("resnet34")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Faults = spec
	r, err := Simulate(net, cfg, SCM)
	if err != nil {
		t.Fatal(err)
	}
	if r.Faults.BankFailures != 4 {
		t.Errorf("BankFailures = %d, want 4", r.Faults.BankFailures)
	}

	wd := DefaultConfig()
	wd.WatchdogLayerCycles = 1
	_, err = Simulate(net, wd, SCM)
	re, ok := AsRunError(err)
	if !ok || re.Severity != Fatal {
		t.Errorf("watchdog error = %v (classified %v)", err, ok)
	}
}

func TestSimulateContextPublic(t *testing.T) {
	net, err := BuildNetwork("resnet18")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()

	viaCtx, err := SimulateContext(context.Background(), net, cfg, SCM)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Simulate(net, cfg, SCM)
	if err != nil {
		t.Fatal(err)
	}
	if viaCtx.TotalCycles != plain.TotalCycles || viaCtx.Traffic != plain.Traffic {
		t.Error("SimulateContext result differs from Simulate")
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SimulateContext(canceled, net, cfg, SCM); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled ctx: err = %v, want context.Canceled", err)
	}
}

func TestExploreDesignSpaceContextPublic(t *testing.T) {
	net, err := BuildNetwork("resnet18")
	if err != nil {
		t.Fatal(err)
	}
	space := DesignSpace{
		Banks:    []int{34},
		BankKiB:  []int{16},
		PE:       [][2]int{{64, 56}},
		FmapGBps: []float64{1.0, 2.0},
	}
	serial, err := ExploreDesignSpaceContext(context.Background(), net, DefaultConfig(), space, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := ExploreDesignSpaceContext(context.Background(), net, DefaultConfig(), space, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("parallel exploration differs from serial")
	}
	if len(serial) != 2 {
		t.Errorf("outcomes = %d, want 2", len(serial))
	}
}
