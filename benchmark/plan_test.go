package main

import (
	"reflect"
	"testing"
)

func TestPlanDeterminism(t *testing.T) {
	for _, w := range workloadNames {
		a, err := newPlan(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newPlan(w, 7)
		c, _ := newPlan(w, 8)
		differs := false
		for i := int64(0); i < 2000; i++ {
			da, err := a.doc(i)
			if err != nil {
				t.Fatal(err)
			}
			db, _ := b.doc(i)
			dc, _ := c.doc(i)
			if da != db {
				t.Fatalf("%s: op %d differs between two plans of seed 7: %+v vs %+v", w, i, da, db)
			}
			differs = differs || da != dc
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 give the same first 2000 ops", w)
		}
	}
}

// TestPlanNoRepeat draws more ops than a 60 s trial sends (about 6,000,
// 1,900 and 350 ops/s on a 2-CPU host for the three workloads) and
// requires every one to ask for distinct work.
func TestPlanNoRepeat(t *testing.T) {
	for _, tc := range []struct {
		workload string
		draws    int64
	}{
		{"sim-sweep", 400_000},
		{"serve-cold", 120_000},
		{"serve-durable", durablePrerun + 30_000},
	} {
		p, err := newPlan(tc.workload, 3)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[doc]int64, tc.draws)
		for i := int64(0); i < tc.draws; i++ {
			d, err := p.doc(i)
			if err != nil {
				t.Fatalf("%s: %v", tc.workload, err)
			}
			if j, ok := seen[d]; ok {
				t.Fatalf("%s: ops %d and %d ask for the same work %+v", tc.workload, j, i, d)
			}
			seen[d] = i
		}
	}
}

func TestPlanGridExhaustion(t *testing.T) {
	p, _ := newPlan("sim-sweep", 1)
	if _, err := p.doc(gridSize); err == nil {
		t.Fatal("a draw past the grid should fail rather than repeat a configuration")
	}
	hot, _ := newPlan("serve-hot", 1)
	if _, err := hot.doc(gridSize); err != nil {
		t.Fatalf("serve-hot repeats its keys by design and must not run out: %v", err)
	}
}

func TestGridPointConfigJSON(t *testing.T) {
	for _, k := range []int64{0, 1, gridSize / 3, gridSize - 1} {
		p := gridAt(k)
		if p.Banks < gridBanksMin || p.Banks >= gridBanksMin+gridBanksN || p.GBps < 0.5 || p.GBps > 4 {
			t.Fatalf("grid point %d out of range: %+v", k, p)
		}
		d := doc{Point: p, HasPoint: true}
		got, err := decodeConfig(d)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, p.config()) {
			t.Fatalf("point %+v: decoded config differs from the applied one", p)
		}
	}
}
