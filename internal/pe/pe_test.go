package pe

import (
	"testing"
	"testing/quick"

	"shortcutmining/internal/nn"
	"shortcutmining/internal/tensor"
)

func testConfig() Config {
	return Config{Tn: 16, Tm: 16, ClockMHz: 200, VectorWidth: 16}
}

func buildConvNet(t *testing.T, inC, outC, hw, k, stride, pad int) *nn.Network {
	t.Helper()
	b := nn.NewBuilder("t", tensor.Shape{C: inC, H: hw, W: hw})
	b.Conv("c", b.InputName(), outC, k, stride, pad)
	n, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestConfigValidate(t *testing.T) {
	if err := testConfig().Validate(); err != nil {
		t.Error(err)
	}
	bad := []Config{
		{Tn: 0, Tm: 16, ClockMHz: 200, VectorWidth: 16},
		{Tn: 16, Tm: 0, ClockMHz: 200, VectorWidth: 16},
		{Tn: 16, Tm: 16, ClockMHz: 0, VectorWidth: 16},
		{Tn: 16, Tm: 16, ClockMHz: 200, VectorWidth: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if testConfig().NumMACs() != 256 {
		t.Errorf("NumMACs = %d", testConfig().NumMACs())
	}
}

func TestConvCyclesExactDivide(t *testing.T) {
	// 16 in, 32 out channels on a 16x16 array: 1 input tile, 2 output
	// tiles. 8x8 output, 3x3 kernel: 64 * 9 * 1 * 2 = 1152 cycles.
	n := buildConvNet(t, 16, 32, 8, 3, 1, 1)
	conv := n.Layer("c")
	got := testConfig().LayerCycles(conv)
	if got != 1152 {
		t.Errorf("cycles = %d, want 1152", got)
	}
	// Perfect divide means full utilization.
	if u := testConfig().Utilization(conv); u != 1.0 {
		t.Errorf("utilization = %f, want 1.0", u)
	}
}

func TestConvCyclesRounding(t *testing.T) {
	// 3 input channels on 16 rows wastes 13 rows: utilization 3/16.
	n := buildConvNet(t, 3, 16, 8, 3, 1, 1)
	conv := n.Layer("c")
	cfg := testConfig()
	want := int64(8*8) * int64(9) * 1 * 1
	if got := cfg.LayerCycles(conv); got != want {
		t.Errorf("cycles = %d, want %d", got, want)
	}
	u := cfg.Utilization(conv)
	if u < 3.0/16-1e-9 || u > 3.0/16+1e-9 {
		t.Errorf("utilization = %f, want %f", u, 3.0/16)
	}
}

func TestFCCycles(t *testing.T) {
	b := nn.NewBuilder("t", tensor.Shape{C: 512, H: 1, W: 1})
	b.FC("fc", b.InputName(), 1000)
	n, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	// ceil(512/16)*ceil(1000/16) = 32*63 = 2016.
	if got := testConfig().LayerCycles(n.Layer("fc")); got != 2016 {
		t.Errorf("fc cycles = %d, want 2016", got)
	}
}

func TestEltwiseAndPoolCycles(t *testing.T) {
	b := nn.NewBuilder("t", tensor.Shape{C: 16, H: 8, W: 8})
	x := b.Conv("c1", b.InputName(), 16, 3, 1, 1)
	y := b.Conv("c2", x, 16, 3, 1, 1)
	add := b.Add("add", x, y)
	p := b.Pool("pool", add, nn.MaxPool, 2, 2, 0)
	g := b.GlobalPool("gp", p)
	n, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	if got := cfg.LayerCycles(n.Layer(add)); got != int64(16*8*8)/16 {
		t.Errorf("add cycles = %d", got)
	}
	if got := cfg.LayerCycles(n.Layer(p)); got != int64(16*4*4*4)/16 {
		t.Errorf("pool cycles = %d", got)
	}
	if got := cfg.LayerCycles(n.Layer(g)); got != int64(16*4*4)/16 {
		t.Errorf("gpool cycles = %d", got)
	}
	if got := cfg.Utilization(n.Layer(add)); got != 0 {
		t.Errorf("add utilization = %f", got)
	}
}

func TestConcatAndInputAreFree(t *testing.T) {
	b := nn.NewBuilder("t", tensor.Shape{C: 8, H: 8, W: 8})
	a := b.Conv("a", b.InputName(), 8, 1, 1, 0)
	c := b.Conv("c", b.InputName(), 8, 1, 1, 0)
	cat := b.Concat("cat", a, c)
	n, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	if got := cfg.LayerCycles(n.Layer(cat)); got != 0 {
		t.Errorf("concat cycles = %d", got)
	}
	if got := cfg.LayerCycles(n.Input()); got != 0 {
		t.Errorf("input cycles = %d", got)
	}
}

func TestQuickCyclesAtLeastIdeal(t *testing.T) {
	// Property: rounded mapping can never beat the ideal MACs/array
	// bound for conv layers.
	f := func(inC, outC, hw, k uint8) bool {
		ic := int(inC%64) + 1
		oc := int(outC%64) + 1
		sz := int(hw%16) + 3
		kk := []int{1, 3, 5}[int(k)%3]
		b := nn.NewBuilder("q", tensor.Shape{C: ic, H: sz, W: sz})
		b.Conv("c", b.InputName(), oc, kk, 1, kk/2)
		n, err := b.Finish()
		if err != nil {
			return false
		}
		conv := n.Layer("c")
		cfg := testConfig()
		cycles := cfg.LayerCycles(conv)
		ideal := float64(conv.MACs()) / float64(cfg.NumMACs())
		return float64(cycles) >= ideal && cfg.Utilization(conv) <= 1.0+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGroupedConvCycles(t *testing.T) {
	// Depthwise conv: each group has 1 input and 1 output channel, so
	// the array processes one channel pair per pass — groups dominate.
	b := nn.NewBuilder("g", tensor.Shape{C: 32, H: 8, W: 8})
	b.GroupedConv("dw", b.InputName(), 32, 3, 1, 1, 32)
	n, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	dw := n.Layer("dw")
	cfg := testConfig()
	// 8*8 spatial × 32 groups × 9 window × ceil(1/16) × ceil(1/16).
	if got, want := cfg.LayerCycles(dw), int64(8*8*32*9); got != want {
		t.Errorf("depthwise cycles = %d, want %d", got, want)
	}
	// Utilization is 1/256: one MAC active per cycle.
	if u := cfg.Utilization(dw); u < 1.0/256-1e-9 || u > 1.0/256+1e-9 {
		t.Errorf("depthwise utilization = %f", u)
	}
}
