package nn

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"shortcutmining/internal/tensor"
)

// TestPlanNeedsFinish: only a network Finish returned carries a plan.
func TestPlanNeedsFinish(t *testing.T) {
	built := MustBuild("densechain")
	if _, err := built.Plan(); err != nil {
		t.Fatalf("built network: %v", err)
	}
	var nilNet *Network
	for name, n := range map[string]*Network{
		"nil":            nilNet,
		"zero":           {},
		"hand-assembled": {Name: built.Name, InputShape: built.InputShape, Layers: built.Layers},
	} {
		if _, err := n.Plan(); !errors.Is(err, ErrUnbuilt) {
			t.Errorf("%s network: Plan() = %v, want ErrUnbuilt", name, err)
		}
	}
}

// TestPlanArenas: the whole plan is two allocations, however many
// layers and sources the network has.
func TestPlanArenas(t *testing.T) {
	n := MustBuild("densenet121")
	if allocs := testing.AllocsPerRun(5, func() {
		if _, err := buildPlan(n); err != nil {
			t.Fatal(err)
		}
	}); allocs != 2 {
		t.Errorf("buildPlan(densenet121) made %.0f allocations, want 2", allocs)
	}
}

// TestPlanLimit: concats that read one map twice double the source
// list at every level; past the limit Finish refuses the network
// instead of allocating it.
func TestPlanLimit(t *testing.T) {
	nest := func(levels int) (*Network, error) {
		b := NewBuilder(fmt.Sprintf("nest%d", levels), tensor.Shape{C: 1, H: 1, W: 1})
		x := b.Conv("x", b.InputName(), 1, 1, 1, 0)
		for i := 0; i < levels; i++ {
			x = b.Concat(fmt.Sprintf("cat%d", i), x, x)
		}
		b.Conv("head", x, 1, 1, 1, 0)
		return b.Finish()
	}
	n, err := nest(18)
	if err != nil {
		t.Fatalf("2^18 reads: %v", err)
	}
	p, err := n.Plan()
	if err != nil {
		t.Fatal(err)
	}
	head := len(n.Layers) - 1
	if got := len(p.Sources(head)); got != 1<<18 {
		t.Errorf("head reads %d maps, want %d", got, 1<<18)
	}
	if d := p.Distinct(head); len(d) != 1 || d[0] != 1 || p.Consumers(1) != 1 || p.LastUse(1) != head {
		t.Errorf("head distinct %v, x consumers %d last use %d; want [1], 1, %d", d, p.Consumers(1), p.LastUse(1), head)
	}
	if _, err := nest(21); err == nil || !strings.Contains(err.Error(), "over the limit") {
		t.Errorf("2^21 reads: %v, want the limit error", err)
	}
}
