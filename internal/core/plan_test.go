package core

import (
	"slices"
	"testing"

	"shortcutmining/internal/dram"
	"shortcutmining/internal/nn"
	"shortcutmining/internal/tensor"
)

// concatNet: squeeze → (e1 ‖ e3) → concat → head, plus a consumer of
// e1 after the concat to exercise multi-consumer expansion.
func concatNet(t *testing.T) *nn.Network {
	t.Helper()
	b := nn.NewBuilder("cat", tensor.Shape{C: 8, H: 8, W: 8})
	sq := b.Conv("sq", b.InputName(), 4, 1, 1, 0) // 1
	e1 := b.Conv("e1", sq, 8, 1, 1, 0)            // 2
	e3 := b.Conv("e3", sq, 8, 3, 1, 1)            // 3
	cat := b.Concat("cat", e1, e3)                // 4
	head := b.Conv("head", cat, 8, 1, 1, 0)       // 5
	b.Concat("cat2", head, e1)                    // 6: e1 read again
	n, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// consumptionPlan and buildConsumptionPlan are the per-run plan
// builder Simulate used before nn.Builder.Finish computed the plan
// once; they stay here as the oracle the Finish plan is held to.
type consumptionPlan struct {
	sources   [][]int
	distinct  [][]int
	consumers []int
	lastUse   []int
}

func buildConsumptionPlan(net *nn.Network) consumptionPlan {
	n := len(net.Layers)
	cp := consumptionPlan{
		sources:   make([][]int, n),
		distinct:  make([][]int, n),
		consumers: make([]int, n),
		lastUse:   make([]int, n),
	}
	for i := range cp.lastUse {
		cp.lastUse[i] = i
	}
	var expand func(p *nn.Layer) []int
	memo := make(map[int][]int)
	expand = func(p *nn.Layer) []int {
		if p.Kind != nn.OpConcat {
			return []int{p.Index}
		}
		if got, ok := memo[p.Index]; ok {
			return got
		}
		var out []int
		for _, in := range p.Inputs {
			out = append(out, expand(net.Layer(in))...)
		}
		memo[p.Index] = out
		return out
	}
	for _, l := range net.Layers {
		if l.Kind == nn.OpInput || l.Kind == nn.OpConcat {
			continue
		}
		var srcs []int
		for _, in := range l.Inputs {
			srcs = append(srcs, expand(net.Layer(in))...)
		}
		cp.sources[l.Index] = srcs
		cp.distinct[l.Index] = uniqueInts(srcs)
		for _, p := range cp.distinct[l.Index] {
			cp.consumers[p]++
			if l.Index > cp.lastUse[p] {
				cp.lastUse[p] = l.Index
			}
		}
	}
	return cp
}

// uniqueInts returns the distinct values of s in first-appearance
// order.
func uniqueInts(s []int) []int {
	var out []int
	for _, v := range s {
		seen := false
		for _, u := range out {
			if u == v {
				seen = true
				break
			}
		}
		if !seen {
			out = append(out, v)
		}
	}
	return out
}

// finishPlan returns the plan nn.Builder.Finish computed for n.
func finishPlan(t *testing.T, n *nn.Network) *nn.Plan {
	t.Helper()
	cp, err := n.Plan()
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// ints widens a plan list for comparison with the oracle.
func ints(s []int32) []int {
	var out []int
	for _, v := range s {
		out = append(out, int(v))
	}
	return out
}

// checkPlanMatchesOracle compares every layer of n's Finish plan with
// the oracle.
func checkPlanMatchesOracle(t *testing.T, n *nn.Network) {
	t.Helper()
	cp := finishPlan(t, n)
	want := buildConsumptionPlan(n)
	for i := range n.Layers {
		if got := ints(cp.Sources(i)); !slices.Equal(got, want.sources[i]) {
			t.Errorf("%s: layer %d sources = %v, oracle %v", n.Name, i, got, want.sources[i])
		}
		if got := ints(cp.Distinct(i)); !slices.Equal(got, want.distinct[i]) {
			t.Errorf("%s: layer %d distinct = %v, oracle %v", n.Name, i, got, want.distinct[i])
		}
		if cp.Consumers(i) != want.consumers[i] || cp.LastUse(i) != want.lastUse[i] {
			t.Errorf("%s: layer %d consumers/lastUse = %d/%d, oracle %d/%d",
				n.Name, i, cp.Consumers(i), cp.LastUse(i), want.consumers[i], want.lastUse[i])
		}
	}
}

// TestPlanMatchesOracle holds the plan nn.Builder.Finish computes to
// the per-run builder it replaced, over every zoo network, seeded
// random networks, and hand-built concat nestings.
func TestPlanMatchesOracle(t *testing.T) {
	for _, name := range nn.ZooNames() {
		checkPlanMatchesOracle(t, nn.MustBuild(name))
	}
	for seed := int64(0); seed < 300; seed++ {
		n, err := nn.RandomNetwork(seed)
		if err != nil {
			t.Fatalf("RandomNetwork(%d): %v", seed, err)
		}
		checkPlanMatchesOracle(t, n)
	}
	checkPlanMatchesOracle(t, concatNet(t))

	// A concat read twice, nested two deep, and added to one of its
	// own sources: duplicates at every level.
	b := nn.NewBuilder("dupcat", tensor.Shape{C: 4, H: 8, W: 8})
	a := b.Conv("a", b.InputName(), 4, 1, 1, 0)
	c := b.Conv("c", a, 4, 3, 1, 1)
	cat1 := b.Concat("cat1", a, c, a)
	cat2 := b.Concat("cat2", cat1, c, cat1)
	d := b.Conv("d", cat2, 4, 1, 1, 0)
	b.Concat("cat3", d, b.InputName())
	e := b.Conv("e", "cat3", 28, 1, 1, 0)
	b.Add("sum", cat2, e)
	n, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	checkPlanMatchesOracle(t, n)
}

func TestConsumptionPlanExpandsConcats(t *testing.T) {
	n := concatNet(t)
	cp := finishPlan(t, n)

	// The concat layers themselves consume nothing.
	if len(cp.Sources(4)) != 0 || len(cp.Sources(6)) != 0 {
		t.Errorf("concat sources = %v / %v, want empty", cp.Sources(4), cp.Sources(6))
	}
	// head (5) reads e1 (2) and e3 (3) through the concat.
	if got := cp.Sources(5); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("head sources = %v, want [2 3]", got)
	}
	// sq (1) is read by e1 and e3 only.
	if cp.Consumers(1) != 2 {
		t.Errorf("sq consumers = %d, want 2", cp.Consumers(1))
	}
	// e1 (2) is read by head (through cat) and would be read again by
	// a consumer of cat2 — but cat2 has no consumers, so e1's last use
	// is head.
	if cp.Consumers(2) != 1 || cp.LastUse(2) != 5 {
		t.Errorf("e1 consumers=%d lastUse=%d, want 1/5", cp.Consumers(2), cp.LastUse(2))
	}
	// Unconsumed outputs last-use themselves.
	if cp.LastUse(6) != 6 {
		t.Errorf("cat2 lastUse = %d", cp.LastUse(6))
	}
}

func TestConsumptionPlanNestedConcats(t *testing.T) {
	b := nn.NewBuilder("nest", tensor.Shape{C: 4, H: 8, W: 8})
	a := b.Conv("a", b.InputName(), 4, 1, 1, 0) // 1
	c := b.Conv("c", b.InputName(), 4, 1, 1, 0) // 2
	cat1 := b.Concat("cat1", a, c)              // 3
	d := b.Conv("d", b.InputName(), 4, 1, 1, 0) // 4
	cat2 := b.Concat("cat2", cat1, d)           // 5
	b.Conv("head", cat2, 4, 1, 1, 0)            // 6
	n, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	cp := finishPlan(t, n)
	// head reads a, c, d through two concat levels, in order.
	if got, want := ints(cp.Sources(6)), []int{1, 2, 4}; !slices.Equal(got, want) {
		t.Errorf("head sources = %v, want %v", got, want)
	}
	// The input feeds a, c, d: three consumers.
	if cp.Consumers(0) != 3 {
		t.Errorf("input consumers = %d, want 3", cp.Consumers(0))
	}
}

func TestConsumptionPlanDuplicateReads(t *testing.T) {
	// add(x, x2) where both operands trace to the same producer via
	// different paths must keep the duplicate for traffic purposes.
	b := nn.NewBuilder("dup", tensor.Shape{C: 4, H: 8, W: 8})
	x := b.Conv("x", b.InputName(), 4, 1, 1, 0) // 1
	y := b.Conv("y", x, 4, 3, 1, 1)             // 2
	b.Add("add", x, y)                          // 3: x read alongside y
	n, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	cp := finishPlan(t, n)
	if got := cp.Sources(3); len(got) != 2 {
		t.Fatalf("add sources = %v", got)
	}
	// x is consumed by two distinct layers (y and add), counted once
	// per layer.
	if cp.Consumers(1) != 2 {
		t.Errorf("x consumers = %d, want 2", cp.Consumers(1))
	}
}

func TestUniqueInts(t *testing.T) {
	cases := []struct {
		in, want []int
	}{
		{nil, nil},
		{[]int{1}, []int{1}},
		{[]int{3, 1, 3, 2, 1}, []int{3, 1, 2}},
	}
	for _, c := range cases {
		if got := uniqueInts(c.in); !slices.Equal(got, c.want) {
			t.Errorf("uniqueInts(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestNextUseAfter(t *testing.T) {
	n := concatNet(t)
	e, err := newExecutor(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	e.net = n
	e.cp = finishPlan(t, n)
	// e1 (2) is next used at head (5) from any point before.
	if got := e.nextUseAfter(2, 2); got != 5 {
		t.Errorf("nextUseAfter(e1, 2) = %d, want 5", got)
	}
	if got := e.nextUseAfter(2, 5); got != len(n.Layers)+1 {
		t.Errorf("nextUseAfter(e1, 5) = %d, want sentinel", got)
	}
}

func TestMemCyclesDualChannel(t *testing.T) {
	cfg := Default()
	cfg.DRAM.BandwidthGBps = 1.0  // fmap channel
	cfg.WeightBandwidthGBps = 2.0 // weight channel
	e, err := newExecutor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var tr dram.Traffic
	// At 200 MHz: fmap channel moves 5 B/cycle, weight channel 10.
	tr[dram.ClassIFMRead] = 500     // 100 cycles on the fmap channel
	tr[dram.ClassWeightRead] = 2000 // 200 cycles on the weight channel
	if got := e.memCycles(tr); got != 200 {
		t.Errorf("dual-channel cycles = %d, want 200 (weight-bound)", got)
	}
	tr[dram.ClassWeightRead] = 100 // 10 cycles
	if got := e.memCycles(tr); got != 100 {
		t.Errorf("dual-channel cycles = %d, want 100 (fmap-bound)", got)
	}
	// Shared channel: everything serializes.
	cfg.WeightBandwidthGBps = 0
	e2, err := newExecutor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := e2.memCycles(tr); got != 120 {
		t.Errorf("shared-channel cycles = %d, want 120", got)
	}
}

func TestReadClassRules(t *testing.T) {
	n := residualNet(t) // input(0) c1(1) c2(2) c3(3) add(4)
	e, err := newExecutor(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	e.net = n
	// Baseline (no role switch): adjacency reads are plain IFM.
	e.feat = Features{}
	if got := e.readClass(0, n.Layers[1]); got != dram.ClassIFMRead {
		t.Errorf("image read class = %v", got)
	}
	if got := e.readClass(1, n.Layers[2]); got != dram.ClassIFMRead {
		t.Errorf("baseline adjacent class = %v", got)
	}
	if got := e.readClass(1, n.Layers[4]); got != dram.ClassShortcutRead {
		t.Errorf("shortcut class = %v", got)
	}
	// With role switching, a DRAM-sourced adjacent read is a spill.
	e.feat = SCM.Features()
	if got := e.readClass(1, n.Layers[2]); got != dram.ClassSpillRead {
		t.Errorf("spill class = %v", got)
	}
	if got := e.readClass(0, n.Layers[1]); got != dram.ClassIFMRead {
		t.Errorf("image read class under scm = %v", got)
	}
}
