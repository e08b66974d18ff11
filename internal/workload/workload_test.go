package workload

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"shortcutmining/internal/core"
)

func TestRegistryComplete(t *testing.T) {
	ids := IDs()
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19", "E20", "E21", "E22", "E23", "E24", "E25"}
	if len(ids) != len(want) {
		t.Fatalf("registry has %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Errorf("id[%d] = %s, want %s", i, ids[i], want[i])
		}
	}
}

func TestGetCaseInsensitive(t *testing.T) {
	e, err := Get("e3")
	if err != nil || e.ID != "E3" {
		t.Errorf("Get(e3) = %v, %v", e.ID, err)
	}
	if _, err := Get("E99"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestAllExperimentsRunAndRender(t *testing.T) {
	cfg := core.Default()
	for _, e := range All() {
		res, err := e.Run(cfg)
		if err != nil {
			t.Errorf("%s: %v", e.ID, err)
			continue
		}
		res.ID, res.Title, res.Anchor = e.ID, e.Title, e.Anchor
		md := res.Markdown()
		if !strings.Contains(md, e.ID) || !strings.Contains(md, "|") {
			t.Errorf("%s: markdown malformed:\n%s", e.ID, md)
		}
		if len(res.Tables) == 0 {
			t.Errorf("%s: no tables", e.ID)
		}
		if len(res.Metrics) == 0 {
			t.Errorf("%s: no metrics", e.ID)
		}
	}
}

func TestE1ShortcutShareBand(t *testing.T) {
	res, err := mustRun(t, "E1")
	if err != nil {
		t.Fatal(err)
	}
	// The paper: "nearly 40% of the total feature map data" for the
	// shortcut networks; controls must be zero.
	for _, name := range []string{"resnet34", "resnet152", "squeezenet-bypass"} {
		share := res.Metrics["share/"+name]
		if share < 0.20 || share > 0.55 {
			t.Errorf("%s share = %.1f%%, outside credible band", name, 100*share)
		}
	}
	for _, name := range []string{"vgg16", "plain34"} {
		if got := res.Metrics["share/"+name]; got != 0 {
			t.Errorf("%s share = %f, want 0", name, got)
		}
	}
}

func TestE3HeadlineReductions(t *testing.T) {
	res, err := mustRun(t, "E3")
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 53.3 / 58 / 43 %. The calibrated platform must land in
	// the right regime and preserve the ordering r34 > squeezenet >
	// r152.
	sq := res.Metrics["reduction/squeezenet-bypass"]
	r34 := res.Metrics["reduction/resnet34"]
	r152 := res.Metrics["reduction/resnet152"]
	if sq < 0.45 || sq > 0.65 {
		t.Errorf("squeezenet reduction %.1f%% outside 45–65%%", 100*sq)
	}
	if r34 < 0.50 || r34 > 0.80 {
		t.Errorf("resnet34 reduction %.1f%% outside 50–80%%", 100*r34)
	}
	if r152 < 0.35 || r152 > 0.55 {
		t.Errorf("resnet152 reduction %.1f%% outside 35–55%%", 100*r152)
	}
	if !(r34 > sq && sq > r152) {
		t.Errorf("ordering violated: r34=%.3f sq=%.3f r152=%.3f", r34, sq, r152)
	}
}

func TestE4SpeedupNearPaper(t *testing.T) {
	res, err := mustRun(t, "E4")
	if err != nil {
		t.Fatal(err)
	}
	geo := res.Metrics["speedup/geomean"]
	if geo < 1.6 || geo > 2.2 {
		t.Errorf("geomean speedup %.2f outside 1.6–2.2 band around the paper's 1.93", geo)
	}
	for _, h := range headline {
		if sp := res.Metrics["speedup/"+h.Network]; sp <= 1.0 {
			t.Errorf("%s speedup %.2f not > 1", h.Network, sp)
		}
	}
}

func TestE6MonotoneInCapacity(t *testing.T) {
	res, err := mustRun(t, "E6")
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range headline {
		prev := -1.0
		// Tolerance: the metric is a ratio against a same-size
		// baseline whose own tiling improves with capacity, so tiny
		// dips at saturation are expected; SCM's absolute traffic is
		// strictly monotone (tested in core).
		for _, kb := range poolSweepKiB {
			red := res.Metrics[keyE6(h.Network, kb)]
			if red < prev-1e-3 {
				t.Errorf("%s: reduction dropped at %d KiB: %.3f < %.3f", h.Network, kb, red, prev)
			}
			prev = red
		}
		// Saturation: the largest pool must essentially eliminate
		// feature-map traffic beyond image+result.
		if last := res.Metrics[keyE6(h.Network, 4096)]; last < 0.85 {
			t.Errorf("%s: 4 MiB pool reduction only %.1f%%", h.Network, 100*last)
		}
	}
}

func keyE6(name string, kb int64) string {
	return "red/" + name + "/" + itoa(kb)
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

func TestE9FlatAcrossSpan(t *testing.T) {
	res, err := mustRun(t, "E9")
	if err != nil {
		t.Fatal(err)
	}
	t1 := res.Metrics["traffic/1"]
	p1 := res.Metrics["pinned/1"]
	for span := 2; span <= 8; span++ {
		if res.Metrics["traffic/"+itoa(int64(span))] != t1 {
			t.Errorf("span %d traffic differs from span 1", span)
		}
		if res.Metrics["pinned/"+itoa(int64(span))] != p1 {
			t.Errorf("span %d pinned peak differs from span 1", span)
		}
	}
}

func TestE8AblationOrdered(t *testing.T) {
	res, err := mustRun(t, "E8")
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range headline {
		prev := -1.0
		for i := 0; i <= 3; i++ { // steps 0..3 are cumulative
			red := res.Metrics["red/"+itoa(int64(i))+"/"+h.Network]
			if red < prev-1e-9 {
				t.Errorf("%s: step %d reduction %.3f < previous %.3f", h.Network, i, red, prev)
			}
			prev = red
		}
	}
}

func TestE11SpeedupBatchInvariant(t *testing.T) {
	res, err := mustRun(t, "E11")
	if err != nil {
		t.Fatal(err)
	}
	s1 := res.Metrics["speedup/1"]
	for _, b := range []int{2, 4, 8} {
		if got := res.Metrics["speedup/"+itoa(int64(b))]; math.Abs(got-s1) > 1e-9 {
			t.Errorf("batch %d speedup %.4f != batch-1 %.4f", b, got, s1)
		}
	}
}

func TestE12NarrowerIsBetter(t *testing.T) {
	res, err := mustRun(t, "E12")
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range headline {
		r8 := res.Metrics["red/fixed8/"+h.Network]
		r32 := res.Metrics["red/float32/"+h.Network]
		if r8 <= r32 {
			t.Errorf("%s: fixed8 reduction %.3f not above float32 %.3f", h.Network, r8, r32)
		}
	}
}

func TestE13ConcatGains(t *testing.T) {
	res, err := mustRun(t, "E13")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"squeezenet", "squeezenet-bypass", "densechain"} {
		if red := res.Metrics["red/"+name]; red <= 0 {
			t.Errorf("%s: no concat-reuse gain (%.3f)", name, red)
		}
	}
}

func TestE2CrossbarOverheadModest(t *testing.T) {
	res, err := mustRun(t, "E2")
	if err != nil {
		t.Fatal(err)
	}
	if ovh := res.Metrics["crossbarOverhead"]; ovh <= 0 || ovh > 0.5 {
		t.Errorf("crossbar overhead %.3f outside (0, 0.5]", ovh)
	}
}

func mustRun(t *testing.T, id string) (Result, error) {
	t.Helper()
	e, err := Get(id)
	if err != nil {
		return Result{}, err
	}
	res, err := e.Run(core.Default())
	if err != nil {
		return Result{}, err
	}
	res.ID = e.ID
	return res, nil
}

func TestE14ModernNetworksBenefit(t *testing.T) {
	res, err := mustRun(t, "E14")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"mobilenetv2", "googlenet", "resnext50", "shufflenetv1", "densenet121", "squeezenet-complex", "resnet50"} {
		if red := res.Metrics["red/"+name]; red <= 0.2 {
			t.Errorf("%s: reduction %.3f too small", name, red)
		}
		if sp := res.Metrics["speedup/"+name]; sp < 1.0 {
			t.Errorf("%s: speedup %.3f below 1", name, sp)
		}
	}
}

func TestE15PolicyWithinNoiseOfPaper(t *testing.T) {
	res, err := mustRun(t, "E15")
	if err != nil {
		t.Fatal(err)
	}
	anyEviction := false
	for k, v := range res.Metrics {
		if strings.HasPrefix(k, "delta/") {
			if v > 0.05 || v < -0.25 {
				t.Errorf("%s = %+.3f outside expected band", k, v)
			}
		}
		if strings.HasPrefix(k, "evictions/") && v > 0 {
			anyEviction = true
		}
	}
	if !anyEviction {
		t.Error("EvictFarthest never activated in the sweep")
	}
}

func TestE16SpeedupDecaysWithBandwidth(t *testing.T) {
	res, err := mustRun(t, "E16")
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range headline {
		lo := res.Metrics["speedup/"+h.Network+"/0.5"]
		hi := res.Metrics["speedup/"+h.Network+"/12.8"]
		if lo <= hi {
			t.Errorf("%s: speedup did not decay with bandwidth (%.2f vs %.2f)", h.Network, lo, hi)
		}
		if hi > 1.3 {
			t.Errorf("%s: compute-bound regime still shows %.2f× speedup", h.Network, hi)
		}
		if hi < 1.0 {
			t.Errorf("%s: SCM slower than baseline at high bandwidth", h.Network)
		}
	}
}

func TestE17ComplementaryRegimes(t *testing.T) {
	res, err := mustRun(t, "E17")
	if err != nil {
		t.Fatal(err)
	}
	// SCM wins where retention fits.
	for _, name := range []string{"squeezenet-bypass", "resnet34"} {
		if r := res.Metrics["ratio/"+name]; r <= 1.0 {
			t.Errorf("%s: fused/scm ratio %.2f, want > 1", name, r)
		}
	}
	// The ResNet-152 crossover: fused leads at 544 KiB, SCM leads by 6 MiB.
	if res.Metrics["r152/544/fused"] >= res.Metrics["r152/544/scm"] {
		t.Error("at 544 KiB fused-layer should lead on ResNet-152")
	}
	if res.Metrics["r152/6144/scm"] >= res.Metrics["r152/6144/fused"] {
		t.Error("at 6 MiB SCM should lead on ResNet-152")
	}
}

func TestE18StreamingRecycleHelpsAtSmallPools(t *testing.T) {
	res, err := mustRun(t, "E18")
	if err != nil {
		t.Fatal(err)
	}
	anyGain := false
	for k, v := range res.Metrics {
		if !strings.HasPrefix(k, "gain/") {
			continue
		}
		// Sub-percent wobble is burst/halo rounding noise from the
		// spill-refill pattern shifting, not a real regression.
		if v < -0.005 {
			t.Errorf("%s = %.4f: streaming recycle regressed", k, v)
		}
		if v > 0.01 {
			anyGain = true
		}
	}
	if !anyGain {
		t.Error("streaming recycle never gained >1% anywhere in the sweep")
	}
}

func TestE19SpeedupStableAcrossTimingModels(t *testing.T) {
	res, err := mustRun(t, "E19")
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range headline {
		s := res.Metrics["speedup-simple/"+h.Network]
		d := res.Metrics["speedup-detailed/"+h.Network]
		if d < 1.0 {
			t.Errorf("%s: detailed speedup %.2f below 1", h.Network, d)
		}
		// Stable means within ~35%% relatively — bubbles shift both
		// designs, not the conclusion.
		if d < 0.65*s || d > 1.35*s {
			t.Errorf("%s: speedup moved %.2f → %.2f across timing models", h.Network, s, d)
		}
		if res.Metrics["slowdown/"+h.Network] < 1.0 {
			t.Errorf("%s: detailed model made the baseline faster", h.Network)
		}
	}
}

func TestE20FinerBanksRetainBetter(t *testing.T) {
	res, err := mustRun(t, "E20")
	if err != nil {
		t.Fatal(err)
	}
	// Monotone (within noise) reduction in bank count for resnet34,
	// and monotone crossbar growth.
	banks := []int{17, 34, 68, 136, 272}
	for i := 1; i < len(banks); i++ {
		coarse := res.Metrics[fmt.Sprintf("red/resnet34/%d", banks[i-1])]
		fine := res.Metrics[fmt.Sprintf("red/resnet34/%d", banks[i])]
		if fine < coarse-0.02 {
			t.Errorf("banks %d→%d: reduction fell %.3f → %.3f", banks[i-1], banks[i], coarse, fine)
		}
		if res.Metrics[fmt.Sprintf("xbar/%d", banks[i])] <= res.Metrics[fmt.Sprintf("xbar/%d", banks[i-1])] {
			t.Errorf("banks %d→%d: crossbar did not grow", banks[i-1], banks[i])
		}
	}
}

func TestE21PortabilityStoryHolds(t *testing.T) {
	res, err := mustRun(t, "E21")
	if err != nil {
		t.Fatal(err)
	}
	for _, plat := range []string{"vc709 (default)", "vc707", "half-scale"} {
		if res.Metrics["fits/"+plat] != 1 {
			t.Errorf("%s does not fit its device", plat)
		}
		for _, h := range headline {
			if red := res.Metrics[fmt.Sprintf("red/%s/%s", plat, h.Network)]; red < 0.15 {
				t.Errorf("%s/%s: reduction %.3f too small", plat, h.Network, red)
			}
			if sp := res.Metrics[fmt.Sprintf("speedup/%s/%s", plat, h.Network)]; sp <= 1.0 {
				t.Errorf("%s/%s: speedup %.3f not > 1", plat, h.Network, sp)
			}
		}
	}
}

func TestE24PlacementPoliciesMeasurablyDiffer(t *testing.T) {
	res, err := mustRun(t, "E24")
	if err != nil {
		t.Fatal(err)
	}
	// The experiment's headline claim: placement policy is a real lever.
	if spread := res.Metrics["placement_spread_mcyc"]; spread <= 0 {
		t.Errorf("placement policies indistinguishable: spread %.3f Mcyc", spread)
	}
	// Affinity exists to cut interconnect traffic; hash ignores it.
	hash := res.Metrics["total_interchip_mb/hash"]
	aff := res.Metrics["total_interchip_mb/affinity"]
	if aff >= hash {
		t.Errorf("affinity interchip %.2f MB not below hash %.2f MB", aff, hash)
	}
	// The contended scenario must actually contend somewhere.
	var anyBackpressure bool
	for k, v := range res.Metrics {
		if strings.HasPrefix(k, "backpressure_mcyc/") && v > 0 {
			anyBackpressure = true
		}
	}
	if !anyBackpressure {
		t.Error("no cell of the sweep shows link backpressure")
	}
	// Deterministic: a second run reproduces every metric exactly.
	again, err := mustRun(t, "E24")
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range res.Metrics {
		if again.Metrics[k] != v {
			t.Errorf("metric %s not deterministic: %v then %v", k, v, again.Metrics[k])
		}
	}
}

func TestE22GracefulDegradation(t *testing.T) {
	res, err := mustRun(t, "E22")
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range headline {
		prev := -1.0
		for _, label := range []string{"0%", "12%", "25%"} {
			infl := res.Metrics[fmt.Sprintf("inflation/%s/%s", h.Network, label)]
			if infl < prev {
				t.Errorf("%s: inflation not monotone at %s: %.4f < %.4f", h.Network, label, infl, prev)
			}
			prev = infl
			if red := res.Metrics[fmt.Sprintf("reduction/%s/%s", h.Network, label)]; red <= 0 {
				t.Errorf("%s at %s failed banks: SCM reduction %.3f not positive", h.Network, label, red)
			}
		}
		if infl := res.Metrics[fmt.Sprintf("inflation/%s/0%%", h.Network)]; infl != 0 {
			t.Errorf("%s: fault-free inflation %.4f != 0", h.Network, infl)
		}
		for _, s := range []core.Strategy{core.Baseline, core.SCM} {
			rel := res.Metrics[fmt.Sprintf("adversity-throughput/%s/%s", h.Network, s)]
			if rel <= 0 || rel >= 1 {
				t.Errorf("%s/%s: adversity throughput ratio %.4f not in (0,1)", h.Network, s, rel)
			}
		}
	}
}

func TestE25CompressionComposesWithMining(t *testing.T) {
	res, err := mustRun(t, "E25")
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["compose_ok"] != 1 {
		t.Error("some shortcut-bearing network moved more fmap bytes under both than the best single mechanism")
	}
	for _, ratio := range []string{"1.5", "2", "4"} {
		for _, h := range headline {
			key := fmt.Sprintf("%s/r%s", h.Network, ratio)
			mine := res.Metrics["fmap_mb/"+key+"/mining"]
			comp := res.Metrics["fmap_mb/"+key+"/compression"]
			both := res.Metrics["fmap_mb/"+key+"/both"]
			base := res.Metrics["fmap_mb/"+key+"/baseline"]
			if mine <= 0 || comp <= 0 || both <= 0 || base <= 0 {
				t.Fatalf("%s: missing arm metrics (%v %v %v %v)", key, base, mine, comp, both)
			}
			if comp >= base {
				t.Errorf("%s: compression-only %.2f MiB not below baseline %.2f", key, comp, base)
			}
			best := mine
			if comp < best {
				best = comp
			}
			if both > best {
				t.Errorf("%s: both %.2f MiB exceeds best single mechanism %.2f", key, both, best)
			}
			if res.Metrics["compose_ok/"+key] != 1 {
				t.Errorf("%s: compose_ok not set", key)
			}
		}
		// Control: no shortcuts to mine, so mining-only stays at the
		// baseline and compression carries the whole reduction.
		key := fmt.Sprintf("squeezenet/r%s", ratio)
		if m, b := res.Metrics["fmap_mb/"+key+"/mining"], res.Metrics["fmap_mb/"+key+"/baseline"]; m > b {
			t.Errorf("%s: mining-only %.2f MiB above baseline %.2f on the bypass-free control", key, m, b)
		}
	}

	// Determinism pin: a second run reproduces every metric exactly.
	again, err := mustRun(t, "E25")
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range res.Metrics {
		if again.Metrics[k] != v {
			t.Errorf("metric %s not deterministic: %v then %v", k, v, again.Metrics[k])
		}
	}
}
