package fused

import (
	"errors"
	"testing"

	"shortcutmining/internal/core"
	"shortcutmining/internal/dram"
	"shortcutmining/internal/nn"
	"shortcutmining/internal/pe"
	"shortcutmining/internal/tensor"
)

func testConfig() Config {
	return Config{
		PE:                  pe.Config{Tn: 16, Tm: 16, ClockMHz: 200, VectorWidth: 16},
		DRAM:                dram.Config{BandwidthGBps: 1.0, BurstBytes: 64, EnergyPJForB: 160},
		BufferBytes:         64 << 10,
		WeightBufBytes:      1 << 20,
		WeightBandwidthGBps: 12.8,
		DType:               tensor.Fixed16,
		ControlCycles:       500,
	}
}

// chain builds n same-shape convs (8x16x16 fmaps, 4 KiB each).
func chain(t *testing.T, n int) *nn.Network {
	t.Helper()
	b := nn.NewBuilder("chain", tensor.Shape{C: 8, H: 16, W: 16})
	x := b.InputName()
	for i := 0; i < n; i++ {
		x = b.Conv(string(rune('a'+i)), x, 8, 3, 1, 1)
	}
	net, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return net
}

const fm = int64(8 * 16 * 16 * 2)

func TestLinearChainFusesIntoOneGroup(t *testing.T) {
	net := chain(t, 4)
	res, err := Simulate(net, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 1 {
		t.Fatalf("groups = %d, want 1 (%v)", len(res.Groups), res.Groups)
	}
	tr := res.Run.Traffic
	// One pass in, one result out, nothing in between.
	if tr[dram.ClassIFMRead] != fm {
		t.Errorf("ifm = %d, want %d", tr[dram.ClassIFMRead], fm)
	}
	if tr[dram.ClassOFMWrite] != fm {
		t.Errorf("ofm = %d, want %d", tr[dram.ClassOFMWrite], fm)
	}
	if got := res.Run.FmapTrafficBytes(); got != 2*fm {
		t.Errorf("fmap traffic = %d, want %d", got, 2*fm)
	}
}

func TestTinyBufferSplitsGroups(t *testing.T) {
	net := chain(t, 4)
	cfg := testConfig()
	cfg.BufferBytes = 2 << 10 // less than one line-buffer stage
	res, err := Simulate(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) < 2 {
		t.Fatalf("tiny buffer still fused everything: %d groups", len(res.Groups))
	}
	// Each split point adds one write+read round trip.
	extra := int64(len(res.Groups)-1) * 2 * fm
	if got := res.Run.FmapTrafficBytes(); got != 2*fm+extra {
		t.Errorf("fmap traffic = %d, want %d", got, 2*fm+extra)
	}
}

func TestShortcutOperandRoundTrips(t *testing.T) {
	// The structural weakness the paper exploits: even with a generous
	// buffer, the fused pipeline re-reads the shortcut operand.
	b := nn.NewBuilder("res", tensor.Shape{C: 8, H: 16, W: 16})
	x := b.Conv("c1", b.InputName(), 8, 3, 1, 1)
	y := b.Conv("c2", x, 8, 3, 1, 1)
	y = b.Conv("c3", y, 8, 3, 1, 1)
	b.Add("add", x, y)
	net, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(net, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Run.Traffic
	if tr[dram.ClassShortcutRead] != fm {
		t.Errorf("shortcut reads = %d, want %d", tr[dram.ClassShortcutRead], fm)
	}
	// c1 has two consumers → group break after c1: c1's output is
	// written and re-read by the next group.
	if tr[dram.ClassOFMWrite] < 2*fm {
		t.Errorf("ofm writes = %d, want ≥%d (c1 copy + result)", tr[dram.ClassOFMWrite], 2*fm)
	}
}

func TestFusedBeatsBaselineLosesToSCMOnResidualNets(t *testing.T) {
	// The paper's positioning: fused-layer removes adjacent-layer
	// round trips but not shortcut traffic.
	ccfg := core.Default()
	fcfg := testConfig()
	fcfg.PE = ccfg.PE
	fcfg.DRAM = ccfg.DRAM
	fcfg.BufferBytes = ccfg.Pool.TotalBytes()
	fcfg.WeightBufBytes = ccfg.WeightBufBytes
	fcfg.WeightBandwidthGBps = ccfg.WeightBandwidthGBps
	fcfg.DType = ccfg.DType

	for _, name := range []string{"resnet34", "resnet152", "squeezenet-bypass", "vgg16"} {
		net := nn.MustBuild(name)
		base, err := core.Simulate(net, ccfg, core.Baseline, nil)
		if err != nil {
			t.Fatal(err)
		}
		scm, err := core.Simulate(net, ccfg, core.SCM, nil)
		if err != nil {
			t.Fatal(err)
		}
		fl, err := Simulate(net, fcfg)
		if err != nil {
			t.Fatal(err)
		}
		f := fl.Run.FmapTrafficBytes()
		if f >= base.FmapTrafficBytes() {
			t.Errorf("%s: fused (%d) not better than baseline (%d)", name, f, base.FmapTrafficBytes())
		}
		// Where retention fits the pool, mining the shortcuts wins.
		if name == "resnet34" || name == "squeezenet-bypass" {
			if f <= scm.FmapTrafficBytes() {
				t.Errorf("%s: fused (%d) beat SCM (%d)", name, f, scm.FmapTrafficBytes())
			}
		}
	}
}

func TestSCMOvertakesFusedGivenCapacity(t *testing.T) {
	// ResNet-152's 1.6 MiB bottleneck fmaps overwhelm a 544 KiB pool,
	// where line buffering is the better fit; with a pool that holds
	// the block working set, shortcut mining wins again — the
	// crossover experiment E17 charts.
	net := nn.MustBuild("resnet152")
	ccfg := core.Default().WithPoolBytes(6 << 20)
	scm, err := core.Simulate(net, ccfg, core.SCM, nil)
	if err != nil {
		t.Fatal(err)
	}
	fcfg := testConfig()
	fcfg.PE = ccfg.PE
	fcfg.DRAM = ccfg.DRAM
	fcfg.BufferBytes = ccfg.Pool.TotalBytes()
	fcfg.DType = ccfg.DType
	fl, err := Simulate(net, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	if scm.FmapTrafficBytes() >= fl.Run.FmapTrafficBytes() {
		t.Errorf("6 MiB pool: SCM (%d) still behind fused (%d)",
			scm.FmapTrafficBytes(), fl.Run.FmapTrafficBytes())
	}
}

func TestWorkingSetGrowsWithGroup(t *testing.T) {
	net := chain(t, 4)
	d := tensor.Fixed16
	one := workingSet(net, []int{1}, d)
	two := workingSet(net, []int{1, 2}, d)
	three := workingSet(net, []int{1, 2, 3}, d)
	if !(one < two && two < three) {
		t.Errorf("working set not monotone: %d %d %d", one, two, three)
	}
}

func TestStandaloneHeadLayers(t *testing.T) {
	b := nn.NewBuilder("head", tensor.Shape{C: 8, H: 8, W: 8})
	x := b.Conv("c", b.InputName(), 8, 3, 1, 1)
	x = b.GlobalPool("gap", x)
	b.FC("fc", x, 10)
	net, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(net, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// conv | gap | fc: three groups (gap and fc are not fusable).
	if len(res.Groups) != 3 {
		t.Fatalf("groups = %d, want 3", len(res.Groups))
	}
	if res.Run.Traffic[dram.ClassWeightRead] == 0 {
		t.Error("no weight traffic recorded")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := testConfig()
	bad.BufferBytes = 0
	if _, err := Simulate(nn.MustResNet(18), bad); err == nil {
		t.Error("zero buffer accepted")
	}
	bad = testConfig()
	bad.PE.Tn = 0
	if _, err := Simulate(nn.MustResNet(18), bad); err == nil {
		t.Error("bad PE config accepted")
	}
}

func TestLayerAccounting(t *testing.T) {
	net := chain(t, 3)
	res, err := Simulate(net, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Every layer (incl. input) appears exactly once in the report.
	if len(res.Run.Layers) != len(net.Layers) {
		t.Errorf("reported %d layers, net has %d", len(res.Run.Layers), len(net.Layers))
	}
}

func TestGroupsRespectWorkingSetBudget(t *testing.T) {
	cfg := testConfig()
	for _, name := range []string{"resnet34", "squeezenet-bypass", "vgg16"} {
		res, err := Simulate(nn.MustBuild(name), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range res.Groups {
			if len(g.Layers) > 1 && g.WorkingSetBytes > cfg.BufferBytes {
				t.Errorf("%s: multi-layer group %v working set %d exceeds buffer %d",
					name, g.Layers, g.WorkingSetBytes, cfg.BufferBytes)
			}
		}
	}
}

func TestEveryLayerAppearsInExactlyOneGroup(t *testing.T) {
	net := nn.MustBuild("googlenet")
	res, err := Simulate(net, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, g := range res.Groups {
		for _, idx := range g.Layers {
			if seen[idx] {
				t.Fatalf("layer %d in two groups", idx)
			}
			seen[idx] = true
		}
	}
	for _, l := range net.Layers {
		if l.Kind == nn.OpInput || l.Kind == nn.OpConcat {
			continue
		}
		if !seen[l.Index] {
			t.Errorf("layer %s missing from the fusion plan", l.Name)
		}
	}
}

func TestUnbuiltNetworkRejected(t *testing.T) {
	for _, net := range []*nn.Network{nil, {}} {
		if _, err := Simulate(net, testConfig()); !errors.Is(err, nn.ErrUnbuilt) {
			t.Errorf("Simulate(%v) = %v, want nn.ErrUnbuilt", net, err)
		}
	}
}
