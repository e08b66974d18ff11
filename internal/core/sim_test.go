package core

import (
	"context"
	"strings"
	"testing"

	"shortcutmining/internal/dram"
	"shortcutmining/internal/nn"
	"shortcutmining/internal/sram"
	"shortcutmining/internal/tensor"
	"shortcutmining/internal/trace"
)

// smallConfig is a platform whose pool comfortably holds the tiny test
// networks, making traffic hand-computable.
func smallConfig() Config {
	cfg := Default()
	cfg.Pool = sram.Config{NumBanks: 64, BankBytes: 4 << 10}
	cfg.ReserveBanks = 2
	cfg.WeightBufBytes = 1 << 20
	return cfg
}

// residualNet is one residual block of same-shape 8x16x16 fmaps
// (1 fmap = 4096 bytes at fixed16).
func residualNet(t *testing.T) *nn.Network {
	t.Helper()
	b := nn.NewBuilder("res", tensor.Shape{C: 8, H: 16, W: 16})
	x := b.Conv("c1", b.InputName(), 8, 3, 1, 1)
	y := b.Conv("c2", x, 8, 3, 1, 1)
	y = b.Conv("c3", y, 8, 3, 1, 1)
	b.Add("add", x, y)
	n, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

const fm = int64(8 * 16 * 16 * 2) // 4096

func TestBaselineTrafficHandComputed(t *testing.T) {
	n := residualNet(t)
	r, err := Simulate(n, smallConfig(), Baseline, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := r.Traffic
	// Reads: image (c1) + c1→c2 + c2→c3 = 3 fmaps of IFM...
	// plus the add reads c3 (gap 1, IFMRead) and c1 (gap 3, shortcut).
	if tr[dram.ClassIFMRead] != 4*fm {
		t.Errorf("ifm reads = %d, want %d", tr[dram.ClassIFMRead], 4*fm)
	}
	if tr[dram.ClassShortcutRead] != fm {
		t.Errorf("shortcut reads = %d, want %d", tr[dram.ClassShortcutRead], fm)
	}
	// Writes: every produced fmap (c1, c2, c3, add).
	if tr[dram.ClassOFMWrite] != 4*fm {
		t.Errorf("ofm writes = %d, want %d", tr[dram.ClassOFMWrite], 4*fm)
	}
	if tr[dram.ClassSpillWrite] != 0 || tr[dram.ClassSpillRead] != 0 {
		t.Error("baseline should not spill")
	}
	if r.FmapTrafficBytes() != 9*fm {
		t.Errorf("fmap traffic = %d, want %d", r.FmapTrafficBytes(), 9*fm)
	}
	// Weights: three 8→8 3x3 convs, read once each.
	if want := 3 * int64(8*8*9*2); tr[dram.ClassWeightRead] != want {
		t.Errorf("weights = %d, want %d", tr[dram.ClassWeightRead], want)
	}
	if r.PeakUsedBanks != 0 {
		t.Errorf("baseline used pool banks: %d", r.PeakUsedBanks)
	}
}

func TestSCMTrafficOnlyImageAndResult(t *testing.T) {
	n := residualNet(t)
	var buf trace.Buffer
	r, err := Simulate(n, smallConfig(), SCM, &buf)
	if err != nil {
		t.Fatal(err)
	}
	tr := r.Traffic
	// Everything retained: only the input image enters and the final
	// output leaves.
	if tr[dram.ClassIFMRead] != fm {
		t.Errorf("ifm reads = %d, want %d (image only)", tr[dram.ClassIFMRead], fm)
	}
	if tr[dram.ClassOFMWrite] != fm {
		t.Errorf("ofm writes = %d, want %d (result only)", tr[dram.ClassOFMWrite], fm)
	}
	for _, c := range []dram.Class{dram.ClassShortcutRead, dram.ClassSpillRead, dram.ClassSpillWrite} {
		if tr[c] != 0 {
			t.Errorf("%v = %d, want 0", c, tr[c])
		}
	}
	// The shortcut fmap was pinned across c2 and c3.
	if r.PeakPinnedBanks == 0 {
		t.Error("nothing was pinned")
	}
	if len(buf.OfKind(trace.KindPin)) != 1 {
		t.Errorf("pin events = %d, want 1", len(buf.OfKind(trace.KindPin)))
	}
	if len(buf.OfKind(trace.KindRoleSwitch)) == 0 {
		t.Error("no role-switch events")
	}
}

func TestFMReuseWritesShortcutCopy(t *testing.T) {
	n := residualNet(t)
	r, err := Simulate(n, smallConfig(), FMReuse, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := r.Traffic
	// c1's output feeds c2 on chip but must also be written for the
	// add; the add re-reads it as shortcut traffic.
	if tr[dram.ClassShortcutRead] != fm {
		t.Errorf("shortcut reads = %d, want %d", tr[dram.ClassShortcutRead], fm)
	}
	// Writes: c1 full copy + final output.
	if tr[dram.ClassOFMWrite] != 2*fm {
		t.Errorf("ofm writes = %d, want %d", tr[dram.ClassOFMWrite], 2*fm)
	}
	// Reads: image only (c2, c3, add primary inputs all on chip).
	if tr[dram.ClassIFMRead] != fm {
		t.Errorf("ifm reads = %d, want %d", tr[dram.ClassIFMRead], fm)
	}
	if r.FmapTrafficBytes() != 4*fm {
		t.Errorf("fmap traffic = %d, want %d", r.FmapTrafficBytes(), 4*fm)
	}
}

func TestStrategyOrderingAcrossZoo(t *testing.T) {
	cfg := Default()
	for _, name := range nn.ZooNames() {
		net := nn.MustBuild(name)
		base, err := Simulate(net, cfg, Baseline, nil)
		if err != nil {
			t.Fatalf("%s baseline: %v", name, err)
		}
		fmr, err := Simulate(net, cfg, FMReuse, nil)
		if err != nil {
			t.Fatalf("%s fm-reuse: %v", name, err)
		}
		scm, err := Simulate(net, cfg, SCM, nil)
		if err != nil {
			t.Fatalf("%s scm: %v", name, err)
		}
		b, f, s := base.FmapTrafficBytes(), fmr.FmapTrafficBytes(), scm.FmapTrafficBytes()
		if !(s <= f && f <= b) {
			t.Errorf("%s: traffic ordering violated: scm=%d fmreuse=%d baseline=%d", name, s, f, b)
		}
		if scm.Throughput() < base.Throughput() {
			t.Errorf("%s: SCM slower than baseline", name)
		}
		// Weight traffic is strategy-independent.
		if base.Traffic[dram.ClassWeightRead] != scm.Traffic[dram.ClassWeightRead] {
			t.Errorf("%s: weight traffic differs across strategies", name)
		}
	}
}

func TestShortcutFreeNetworksGainNothingFromRetention(t *testing.T) {
	cfg := Default()
	for _, name := range []string{"vgg16", "plain34"} {
		net := nn.MustBuild(name)
		fmr, err := Simulate(net, cfg, FMReuse, nil)
		if err != nil {
			t.Fatal(err)
		}
		scm, err := Simulate(net, cfg, SCM, nil)
		if err != nil {
			t.Fatal(err)
		}
		if fmr.FmapTrafficBytes() != scm.FmapTrafficBytes() {
			t.Errorf("%s: scm %d != fm-reuse %d without shortcuts",
				name, scm.FmapTrafficBytes(), fmr.FmapTrafficBytes())
		}
	}
}

func TestSCMTrafficMonotoneInPoolSize(t *testing.T) {
	net := nn.MustResNet(34)
	prev := int64(-1)
	for _, kb := range []int64{256, 384, 512, 768, 1024, 2048, 4096} {
		cfg := Default().WithPoolBytes(kb << 10)
		r, err := Simulate(net, cfg, SCM, nil)
		if err != nil {
			t.Fatalf("pool %dKB: %v", kb, err)
		}
		got := r.FmapTrafficBytes()
		if prev >= 0 && got > prev {
			t.Errorf("pool %dKB: traffic %d > smaller pool's %d", kb, got, prev)
		}
		prev = got
	}
}

func TestSpanInvariance(t *testing.T) {
	// The paper's core claim (E9): retaining a shortcut across more
	// intermediate layers costs no extra traffic and no extra pinned
	// banks, as long as the layer shapes are unchanged.
	cfg := smallConfig()
	var firstFmapPerBlock int64
	var firstPinned int
	for span := 1; span <= 8; span++ {
		net, err := nn.ShortcutSpanNet(span, 3, 8, 16)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Simulate(net, cfg, SCM, nil)
		if err != nil {
			t.Fatal(err)
		}
		if span == 1 {
			firstFmapPerBlock = r.FmapTrafficBytes()
			firstPinned = r.PeakPinnedBanks
			continue
		}
		if got := r.FmapTrafficBytes(); got != firstFmapPerBlock {
			t.Errorf("span %d: traffic %d != span-1 traffic %d", span, got, firstFmapPerBlock)
		}
		if r.PeakPinnedBanks != firstPinned {
			t.Errorf("span %d: pinned peak %d != span-1 peak %d", span, r.PeakPinnedBanks, firstPinned)
		}
	}
}

func TestIncrementalRecycleUnderPressure(t *testing.T) {
	// Pool sized so the add's output cannot be placed without
	// recycling the consumed shortcut banks: 3 fmaps of capacity + the
	// reserve; during the add, shortcut + primary are held (2 fmaps)
	// and the output (1 fmap) must come from recycled banks.
	b := nn.NewBuilder("res", tensor.Shape{C: 8, H: 16, W: 16})
	x := b.Conv("c1", b.InputName(), 8, 3, 1, 1)
	y := b.Conv("c2", x, 8, 3, 1, 1)
	sum := b.Add("add", x, y)
	b.Conv("c3", sum, 8, 3, 1, 1) // keeps the add's output retained
	net, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Default()
	cfg.Pool = sram.Config{NumBanks: 10, BankBytes: 1 << 10} // 10 KiB: 2.5 fmaps
	cfg.ReserveBanks = 1
	withRecycle, err := Simulate(net, cfg, SCM, nil)
	if err != nil {
		t.Fatal(err)
	}
	if withRecycle.BanksRecycled == 0 {
		t.Fatal("expected bank recycling under pressure")
	}
	noRecycle := SCM.Features()
	noRecycle.IncrementalRecycle = false
	without, err := SimulateFeatures(net, cfg, noRecycle, nil)
	if err != nil {
		t.Fatal(err)
	}
	if without.BanksRecycled != 0 {
		t.Error("recycling happened with P4 disabled")
	}
	if withRecycle.FmapTrafficBytes() >= without.FmapTrafficBytes() {
		t.Errorf("recycling did not reduce traffic: %d vs %d",
			withRecycle.FmapTrafficBytes(), without.FmapTrafficBytes())
	}
}

func TestPartialRetentionSpills(t *testing.T) {
	// Pool far smaller than one fmap: with P5 a prefix is retained and
	// the suffix spilled; without P5 retention is all-or-nothing.
	n := residualNet(t)
	cfg := Default()
	cfg.Pool = sram.Config{NumBanks: 8, BankBytes: 1 << 10} // 8 KiB, fmap = 4 KiB
	cfg.ReserveBanks = 2
	partial, err := Simulate(n, cfg, SCM, nil)
	if err != nil {
		t.Fatal(err)
	}
	if partial.Traffic[dram.ClassSpillWrite] == 0 {
		t.Error("expected spill writes under pressure")
	}
	noP5 := SCM.Features()
	noP5.PartialRetention = false
	allOrNothing, err := SimulateFeatures(n, cfg, noP5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if allOrNothing.FmapTrafficBytes() < partial.FmapTrafficBytes() {
		t.Errorf("all-or-nothing beat partial retention: %d vs %d",
			allOrNothing.FmapTrafficBytes(), partial.FmapTrafficBytes())
	}
}

func TestAblationMonotonicity(t *testing.T) {
	// Each procedure, added in order, must not increase traffic on the
	// headline residual networks.
	sets := []Features{
		{},
		{RoleSwitch: true, PartialRetention: true},
		{RoleSwitch: true, ShortcutRetention: true, PartialRetention: true},
		{RoleSwitch: true, ShortcutRetention: true, IncrementalRecycle: true, PartialRetention: true},
	}
	cfg := Default()
	for _, name := range nn.HeadlineNetworks() {
		net := nn.MustBuild(name)
		prev := int64(-1)
		for i, f := range sets {
			r, err := SimulateFeatures(net, cfg, f, nil)
			if err != nil {
				t.Fatalf("%s set %d: %v", name, i, err)
			}
			got := r.FmapTrafficBytes()
			if prev >= 0 && got > prev {
				t.Errorf("%s: feature set %d increased traffic %d → %d", name, i, prev, got)
			}
			prev = got
		}
	}
}

func TestBatchScaling(t *testing.T) {
	net := nn.MustResNet(18)
	cfg := Default()
	one, err := Simulate(net, cfg, SCM, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Batch = 4
	four, err := Simulate(net, cfg, SCM, nil)
	if err != nil {
		t.Fatal(err)
	}
	if four.FmapTrafficBytes() != 4*one.FmapTrafficBytes() {
		t.Errorf("traffic did not scale: %d vs 4×%d", four.FmapTrafficBytes(), one.FmapTrafficBytes())
	}
	if four.TotalCycles != 4*one.TotalCycles {
		t.Errorf("cycles did not scale: %d vs 4×%d", four.TotalCycles, one.TotalCycles)
	}
	if four.MACs != 4*one.MACs {
		t.Errorf("MACs did not scale")
	}
	// Throughput (img/s) is batch-invariant under linear scaling.
	if delta := four.Throughput() - one.Throughput(); delta > 1e-9 || delta < -1e-9 {
		t.Errorf("throughput changed with batch: %g vs %g", four.Throughput(), one.Throughput())
	}
}

func TestDTypeScaling(t *testing.T) {
	net := nn.MustResNet(18)
	cfg := Default()
	cfg.DType = tensor.Fixed8
	r8, err := Simulate(net, cfg, Baseline, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DType = tensor.Fixed16
	r16, err := Simulate(net, cfg, Baseline, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Baseline fmap traffic scales at least with element size; the
	// fixed-capacity buffers make halo/grouping overheads relatively
	// worse at wider types, so slightly more than 2× is expected.
	lo, hi := 19*r8.FmapTrafficBytes()/10, 25*r8.FmapTrafficBytes()/10
	if got := r16.FmapTrafficBytes(); got < lo || got > hi {
		t.Errorf("fixed16 traffic %d not ≈2–2.5× fixed8 %d", got, r8.FmapTrafficBytes())
	}
}

func TestSimulateErrors(t *testing.T) {
	net := nn.MustResNet(18)
	bad := Default()
	bad.Batch = 0
	if _, err := Simulate(net, bad, SCM, nil); err == nil {
		t.Error("invalid config accepted")
	}
	tiny := Default()
	tiny.Pool = sram.Config{NumBanks: 2, BankBytes: 64}
	tiny.ReserveBanks = 0
	if _, err := Simulate(net, tiny, Baseline, nil); err == nil {
		t.Error("infeasible pool accepted")
	} else if !strings.Contains(err.Error(), "conv1") {
		t.Errorf("error should name the failing layer: %v", err)
	}
}

func TestParseStrategy(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Strategy
	}{{"baseline", Baseline}, {"fm-reuse", FMReuse}, {"fmreuse", FMReuse}, {"scm", SCM}, {"shortcut-mining", SCM}} {
		got, err := ParseStrategy(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseStrategy(%q) = %v, %v", c.in, got, err)
		}
	}
	if _, err := ParseStrategy("magic"); err == nil {
		t.Error("unknown strategy accepted")
	}
	if len(Strategies()) != 3 {
		t.Error("Strategies() should list 3 points")
	}
}

func TestFeatureLabels(t *testing.T) {
	if featureLabel(Baseline.Features()) != "baseline" {
		t.Error("baseline label")
	}
	if featureLabel(SCM.Features()) != "scm" {
		t.Error("scm label")
	}
	custom := Features{RoleSwitch: true, ShortcutRetention: true}
	if got := featureLabel(custom); !strings.Contains(got, "P2") || !strings.Contains(got, "P3") {
		t.Errorf("custom label = %q", got)
	}
	if Baseline.String() != "baseline" || FMReuse.String() != "fm-reuse" || SCM.String() != "scm" {
		t.Error("strategy strings")
	}
}

func TestWithPoolBytes(t *testing.T) {
	cfg := Default()
	c2 := cfg.WithPoolBytes(1 << 20)
	if got := c2.Pool.TotalBytes(); got < 1<<20 || got >= (1<<20)+int64(c2.Pool.BankBytes) {
		t.Errorf("pool bytes = %d", got)
	}
	c3 := cfg.WithPoolBytes(1)
	if c3.Pool.NumBanks <= cfg.ReserveBanks {
		t.Errorf("degenerate pool: %d banks", c3.Pool.NumBanks)
	}
}

func TestTraceEventsWellFormed(t *testing.T) {
	var buf trace.Buffer
	net := nn.MustBuild("squeezenet-bypass")
	if _, err := Simulate(net, Default(), SCM, &buf); err != nil {
		t.Fatal(err)
	}
	starts := buf.OfKind(trace.KindLayerStart)
	ends := buf.OfKind(trace.KindLayerEnd)
	if len(starts) != len(net.Layers) || len(ends) != len(net.Layers) {
		t.Errorf("start/end events %d/%d for %d layers", len(starts), len(ends), len(net.Layers))
	}
	var prev int64
	for _, e := range buf.Events {
		if e.Seq <= prev {
			t.Fatalf("non-monotonic seq %d after %d", e.Seq, prev)
		}
		prev = e.Seq
	}
	if len(buf.OfKind(trace.KindPin)) == 0 {
		t.Error("no retention events on a bypass network")
	}
}

func TestAmortizeWeights(t *testing.T) {
	net := nn.MustResNet(18)
	cfg := Default()
	cfg.Batch = 4
	perImage, err := Simulate(net, cfg, SCM, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.AmortizeWeights = true
	amort, err := Simulate(net, cfg, SCM, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Weights once vs four times; feature maps identical.
	if got, want := amort.Traffic[dram.ClassWeightRead], perImage.Traffic[dram.ClassWeightRead]/4; got != want {
		t.Errorf("amortized weights = %d, want %d", got, want)
	}
	if amort.FmapTrafficBytes() != perImage.FmapTrafficBytes() {
		t.Error("amortization changed feature-map traffic")
	}
}

func TestCaptureFanOutFmaps(t *testing.T) {
	// The input image feeds three branches; after the first branch
	// streams it from DRAM, the executor must capture it so the other
	// two read it on chip.
	b := nn.NewBuilder("fanout", tensor.Shape{C: 8, H: 16, W: 16})
	a := b.Conv("a", b.InputName(), 8, 1, 1, 0)
	c := b.Conv("c", b.InputName(), 8, 3, 1, 1)
	d := b.Conv("d", b.InputName(), 8, 3, 1, 1)
	s1 := b.Add("s1", a, c)
	b.Add("s2", s1, d)
	net, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	var buf trace.Buffer
	r, err := Simulate(net, smallConfig(), SCM, &buf)
	if err != nil {
		t.Fatal(err)
	}
	// Image read exactly once despite three consumers.
	if got := r.Traffic[dram.ClassIFMRead]; got != fm {
		t.Errorf("image traffic = %d, want %d (single read)", got, fm)
	}
	captured := false
	for _, e := range buf.OfKind(trace.KindPin) {
		if e.Note == "capture" && e.Tag == "input" {
			captured = true
		}
	}
	if !captured {
		t.Error("no capture event for the input image")
	}
	// Without retention the image is re-read per consumer.
	fmr, err := Simulate(net, smallConfig(), FMReuse, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmr.Traffic[dram.ClassIFMRead]; got != 3*fm {
		t.Errorf("fm-reuse image traffic = %d, want %d", got, 3*fm)
	}
}

func TestCaptureSkipsSingleFarConsumer(t *testing.T) {
	// A fully spilled fmap with ONE remaining consumer is not captured
	// (the retention-pressure gamble); residualNet's shortcut after c2
	// has exactly one consumer left, so force full spilling with a pool
	// too small to retain anything and check no capture happens.
	cfg := Default()
	cfg.Pool = sram.Config{NumBanks: 3, BankBytes: 1 << 10}
	cfg.ReserveBanks = 2
	cfg.WeightBufBytes = 1 << 20
	var buf trace.Buffer
	if _, err := Simulate(residualNet(t), cfg, SCM, &buf); err != nil {
		t.Fatal(err)
	}
	for _, e := range buf.OfKind(trace.KindPin) {
		if e.Note == "capture" {
			t.Errorf("unexpected capture of %s", e.Tag)
		}
	}
}

func TestCaptureFunctionallyCorrect(t *testing.T) {
	// Dense fan-out with capture active, under pressure, bit-exact.
	net, err := nn.DenseChain(5, 8, 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, banks := range []int{6, 10, 24, 64} {
		cfg := Default()
		cfg.Pool = sram.Config{NumBanks: banks, BankBytes: 1 << 10}
		cfg.ReserveBanks = 2
		cfg.WeightBufBytes = 1 << 20
		if _, err := VerifyFunctional(net, cfg, SCM.Features(), 9); err != nil {
			t.Fatalf("banks %d: %v", banks, err)
		}
	}
}

// TestRecyclablesReuseScratch: recyclables refills the executor's
// scratch slice on every call, so it never carries an earlier layer's
// operands into the next layer's recycling.
func TestRecyclablesReuseScratch(t *testing.T) {
	net := nn.MustBuild("resnet34")
	r, err := NewRun(net, Default(), SCM, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := net.Plan()
	if err != nil {
		t.Fatal(err)
	}
	most := 0
	for i := range net.Layers {
		most = max(most, len(cp.Distinct(i)))
	}
	for done := false; !done; {
		if done, err = r.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
		if n := len(r.e.recycle); n > most {
			t.Fatalf("after layer %d the scratch holds %d recyclables; no layer reads more than %d operands",
				r.NextLayer()-1, n, most)
		}
	}
}
