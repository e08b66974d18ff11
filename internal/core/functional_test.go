package core

import (
	"strings"
	"testing"

	"shortcutmining/internal/nn"
	"shortcutmining/internal/sram"
	"shortcutmining/internal/tensor"
)

// funcNets builds the small networks the functional mode exercises:
// every operator kind, shortcut spans, concat fan-out, projections.
func funcNets(t *testing.T) []*nn.Network {
	t.Helper()
	var nets []*nn.Network

	// Residual chain with pooling, projection, and classifier.
	b := nn.NewBuilder("mini-resnet", tensor.Shape{C: 4, H: 16, W: 16})
	x := b.Conv("stem", b.InputName(), 8, 3, 1, 1)
	x = b.Pool("pool", x, nn.MaxPool, 2, 2, 0)
	y := b.Conv("b1.c1", x, 8, 3, 1, 1)
	y = b.Conv("b1.c2", y, 8, 3, 1, 1)
	x = b.Add("b1.add", x, y)
	proj := b.Conv("b2.down", x, 16, 1, 2, 0)
	y = b.Conv("b2.c1", x, 16, 3, 2, 1)
	y = b.Conv("b2.c2", y, 16, 3, 1, 1)
	x = b.Add("b2.add", proj, y)
	x = b.GlobalPool("gap", x)
	b.FC("fc", x, 10)
	n, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	nets = append(nets, n)

	// Fire-module style concat with bypass and average pooling.
	b = nn.NewBuilder("mini-squeeze", tensor.Shape{C: 8, H: 12, W: 12})
	x = b.Conv("c1", b.InputName(), 16, 3, 1, 1)
	sq := b.Conv("f.squeeze", x, 4, 1, 1, 0)
	e1 := b.Conv("f.e1", sq, 8, 1, 1, 0)
	e3 := b.Conv("f.e3", sq, 8, 3, 1, 1)
	cat := b.Concat("f.cat", e1, e3)
	x = b.Add("f.bypass", x, cat)
	x = b.Pool("avg", x, nn.AvgPool, 2, 2, 0)
	b.Conv("head", x, 10, 1, 1, 0)
	n, err = b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	nets = append(nets, n)

	// Long-span shortcut.
	n, err = nn.ShortcutSpanNet(5, 2, 8, 10)
	if err != nil {
		t.Fatal(err)
	}
	nets = append(nets, n)

	// Dense concat fan-out (multi-consumer retention).
	n, err = nn.DenseChain(4, 6, 10)
	if err != nil {
		t.Fatal(err)
	}
	nets = append(nets, n)
	return nets
}

func funcConfig(banks int) Config {
	cfg := Default()
	cfg.Pool = sram.Config{NumBanks: banks, BankBytes: 1 << 10}
	cfg.ReserveBanks = 2
	cfg.WeightBufBytes = 1 << 20
	return cfg
}

func TestFunctionalAllStrategiesGenerousPool(t *testing.T) {
	for _, net := range funcNets(t) {
		for _, s := range Strategies() {
			r, err := VerifyFunctional(net, funcConfig(96), s.Features(), 1)
			if err != nil {
				t.Errorf("%s/%s: %v", net.Name, s, err)
			} else if want := s.String() + "+functional"; r.Strategy != want {
				t.Errorf("%s/%s: labelled %q, want %q", net.Name, s, r.Strategy, want)
			}
		}
	}
}

func TestFunctionalUnderCapacityPressure(t *testing.T) {
	// Shrinking pools force partial retention, spilling, and
	// recycling; data must survive every combination.
	for _, net := range funcNets(t) {
		for _, banks := range []int{8, 12, 16, 24, 48} {
			for _, s := range Strategies() {
				if _, err := VerifyFunctional(net, funcConfig(banks), s.Features(), 7); err != nil {
					t.Errorf("%s/%s/banks=%d: %v", net.Name, s, banks, err)
				}
			}
		}
	}
}

func TestFunctionalAblationFeatureSets(t *testing.T) {
	sets := []Features{
		{RoleSwitch: true},
		{RoleSwitch: true, ShortcutRetention: true},
		{RoleSwitch: true, ShortcutRetention: true, PartialRetention: true},
		{RoleSwitch: true, ShortcutRetention: true, IncrementalRecycle: true},
		{RoleSwitch: true, PartialRetention: true, IncrementalRecycle: true},
	}
	for _, net := range funcNets(t) {
		for i, f := range sets {
			r, err := VerifyFunctional(net, funcConfig(14), f, 99)
			if err != nil {
				t.Errorf("%s/set%d: %v", net.Name, i, err)
			} else if want := featureLabel(f) + "+functional"; r.Strategy != want {
				t.Errorf("%s/set%d: labelled %q, want %q", net.Name, i, r.Strategy, want)
			}
		}
	}
}

func TestFunctionalExercisesTheMachinery(t *testing.T) {
	// Sanity: the pressured runs really did spill, pin and recycle —
	// otherwise the verification proves less than claimed.
	net, err := nn.ShortcutSpanNet(3, 3, 8, 12)
	if err != nil {
		t.Fatal(err)
	}
	r, err := VerifyFunctional(net, funcConfig(9), SCM.Features(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.PeakPinnedBanks == 0 {
		t.Error("no pinning under pressure")
	}
	if r.Traffic[4] == 0 && r.BanksRecycled == 0 { // ClassSpillWrite
		t.Error("pressured run neither spilled nor recycled")
	}
}

func TestFunctionalRejectsMisalignedBanks(t *testing.T) {
	cfg := funcConfig(16)
	cfg.Pool.BankBytes = 1022
	if _, err := VerifyFunctional(nn.MustResNet(18), cfg, SCM.Features(), 1); err == nil {
		t.Error("misaligned banks accepted")
	}
}

func TestFunctionalDeterministic(t *testing.T) {
	net := funcNets(t)[0]
	a, err := VerifyFunctional(net, funcConfig(16), SCM.Features(), 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := VerifyFunctional(net, funcConfig(16), SCM.Features(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if a.FmapTrafficBytes() != b.FmapTrafficBytes() || a.TotalCycles != b.TotalCycles {
		t.Error("functional runs are not deterministic")
	}
}

// TestFunctionalLayerError: a layer that fails in functional mode is
// reported with the network and the layer it failed in.
func TestFunctionalLayerError(t *testing.T) {
	// Four 1 KiB banks cannot hold conv1's minimal input stripe.
	_, err := VerifyFunctional(nn.MustResNet(18), funcConfig(4), SCM.Features(), 3)
	if err == nil || !strings.Contains(err.Error(), "resnet18: layer conv1:") {
		t.Errorf("starved pool: err %v, want it to name resnet18 and conv1", err)
	}
}
