package sched

import (
	"testing"

	"shortcutmining/internal/core"
	"shortcutmining/internal/nn"
)

func TestPlacementNames(t *testing.T) {
	for _, p := range []Placement{Hash, LeastLoad, Affinity} {
		got, err := ParsePlacement(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePlacement(%q) = %v, %v", p.String(), got, err)
		}
	}
	if p, err := ParsePlacement(""); err != nil || p != DefaultPlacement {
		t.Errorf("empty placement = %v, %v; want default", p, err)
	}
	if _, err := ParsePlacement("random"); err == nil {
		t.Error("ParsePlacement(random): want error")
	}
}

func TestAssignmentShapes(t *testing.T) {
	cfg := core.Default()
	net, err := nn.Build("resnet34")
	if err != nil {
		t.Fatal(err)
	}
	perLayer := make([]int64, len(net.Layers))
	for i := range perLayer {
		perLayer[i] = 1000 // uniform weight is enough for shape checks
	}
	for _, chips := range []int{2, 3, 5} {
		for _, p := range []Placement{Hash, LeastLoad, Affinity} {
			a := assign(p, net, cfg.DType, perLayer, chips)
			if len(a) != len(net.Layers) {
				t.Fatalf("%s/%d: %d assignments for %d layers", p, chips, len(a), len(net.Layers))
			}
			for i, c := range a {
				if c < 0 || c >= chips {
					t.Fatalf("%s/%d: layer %d on chip %d", p, chips, i, c)
				}
			}
			if p == LeastLoad || p == Affinity {
				for i := 1; i < len(a); i++ {
					if a[i] < a[i-1] {
						t.Fatalf("%s/%d: assignment not contiguous at layer %d: %v", p, chips, i, a)
					}
				}
			}
		}
	}
}

func TestAffinityAvoidsShortcutCuts(t *testing.T) {
	cfg := core.Default()
	net, err := nn.Build("resnet34")
	if err != nil {
		t.Fatal(err)
	}
	perLayer := make([]int64, len(net.Layers))
	for i := range perLayer {
		perLayer[i] = 1000
	}
	info := affinityBoundaries(net, cfg.DType)
	var clean int
	for _, ok := range info.allowed {
		if ok {
			clean++
		}
	}
	if clean == 0 {
		t.Fatal("resnet34 reports no shortcut-clean boundaries; affinity has nothing to work with")
	}
	a := assign(Affinity, net, cfg.DType, perLayer, 3)
	for i := 1; i < len(a); i++ {
		if a[i] != a[i-1] && !info.allowed[i] {
			t.Errorf("affinity cut at boundary %d crosses a shortcut edge", i)
		}
	}
	// LeastLoad on the same inputs is free to cut anywhere; on a
	// residual network its pure balance cut generally lands inside a
	// block, which is exactly the traffic affinity avoids.
	b := assign(LeastLoad, net, cfg.DType, perLayer, 3)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Log("leastload and affinity chose identical cuts on uniform weights (allowed, but unusual)")
	}
}
