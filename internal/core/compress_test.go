package core

import (
	"context"
	"testing"

	"shortcutmining/internal/compress"
	"shortcutmining/internal/dram"
	"shortcutmining/internal/nn"
)

// compressedDefault returns the calibrated platform with a ZVC codec
// on every compressible class.
func compressedDefault(t *testing.T) Config {
	t.Helper()
	cc, err := compress.ParseSpec("zvc:sparsity=0.5,enc=2,dec=2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Default()
	cfg.Compression = cc
	return cfg
}

// TestCompressedSimulate pins the codec's end-to-end effect: feature-
// map wire traffic shrinks, weight traffic is untouched, the codec
// ledger balances against the channel tallies, and codec engine time
// stays inside the per-layer cycle attribution.
func TestCompressedSimulate(t *testing.T) {
	net := nn.MustBuild("resnet34")
	base, err := Simulate(net, Default(), SCM, nil)
	if err != nil {
		t.Fatal(err)
	}
	if base.Compression != nil {
		t.Fatal("uncompressed run carries a codec ledger")
	}
	got, err := Simulate(net, compressedDefault(t), SCM, nil)
	if err != nil {
		t.Fatal(err)
	}
	cs := got.Compression
	if cs == nil {
		t.Fatal("compressed run reports no codec ledger")
	}
	if got.Traffic.FeatureMap() >= base.Traffic.FeatureMap() {
		t.Errorf("compressed fmap traffic %d not below uncompressed %d",
			got.Traffic.FeatureMap(), base.Traffic.FeatureMap())
	}
	if got.Traffic[dram.ClassWeightRead] != base.Traffic[dram.ClassWeightRead] {
		t.Errorf("weight traffic changed: %d vs %d",
			got.Traffic[dram.ClassWeightRead], base.Traffic[dram.ClassWeightRead])
	}
	// The logical view must match what the uncompressed run moved
	// (burst rounding aside, logical bytes are what layers exchange and
	// the codec cannot change that).
	if cs.Logical[dram.ClassWeightRead] != cs.Wire[dram.ClassWeightRead] {
		t.Errorf("weight class logical %d != wire %d (weights are never compressed)",
			cs.Logical[dram.ClassWeightRead], cs.Wire[dram.ClassWeightRead])
	}
	for c := range cs.Wire {
		if cs.Wire[c] > cs.Logical[c] {
			t.Errorf("class %d: wire %d exceeds logical %d", c, cs.Wire[c], cs.Logical[c])
		}
	}
	if cs.SavedBytes != cs.Logical.Total()-cs.Wire.Total() {
		t.Errorf("saved %d != logical-wire %d", cs.SavedBytes, cs.Logical.Total()-cs.Wire.Total())
	}
	if cs.EncodeCycles == 0 || cs.DecodeCycles == 0 {
		t.Errorf("codec engine time missing: enc %d dec %d", cs.EncodeCycles, cs.DecodeCycles)
	}
	var layerCodec, layerCycles int64
	for _, ls := range got.Layers {
		layerCodec += ls.CodecCycles
		layerCycles += ls.Cycles
	}
	if layerCodec != cs.EncodeCycles+cs.DecodeCycles {
		t.Errorf("per-layer codec cycles %d != ledger enc+dec %d",
			layerCodec, cs.EncodeCycles+cs.DecodeCycles)
	}
	if layerCycles != got.TotalCycles {
		t.Errorf("per-layer cycles %d != total %d with codec on", layerCycles, got.TotalCycles)
	}
}

// TestSuspendResumeBitIdenticalCompressed re-runs the suspend-at-every-
// boundary golden test with the codec on: preemption costs (now
// compressed spills and reloads) stay isolated in SchedStats and the
// final RunStats — codec ledger included — is bit-identical to the
// uninterrupted compressed run.
func TestSuspendResumeBitIdenticalCompressed(t *testing.T) {
	net := nn.MustBuild("squeezenet-bypass")
	cfg := compressedDefault(t)
	for _, strat := range Strategies() {
		want, err := Simulate(net, cfg, strat, nil)
		if err != nil {
			t.Fatalf("%s: Simulate: %v", strat, err)
		}
		r, err := NewRun(net, cfg, strat, nil, nil)
		if err != nil {
			t.Fatalf("%s: NewRun: %v", strat, err)
		}
		for done := false; !done; {
			done, err = r.Step(context.Background())
			if err != nil {
				t.Fatalf("%s: step: %v", strat, err)
			}
			if !done {
				if _, err := r.Suspend(); err != nil {
					t.Fatalf("%s: suspend at layer %d: %v", strat, r.NextLayer(), err)
				}
			}
		}
		got, err := r.Result()
		if err != nil {
			t.Fatalf("%s: Result: %v", strat, err)
		}
		if g, w := runJSON(t, got), runJSON(t, want); g != w {
			t.Errorf("%s: compressed suspend/resume changed RunStats\n got %s\nwant %s", strat, g, w)
		}
		if strat == SCM {
			// Compressed spills move fewer bytes than their logical
			// payload; the ledger records the wire side.
			sc := r.Sched()
			plain, err := func() (SchedStats, error) {
				pr, err := NewRun(net, Default(), strat, nil, nil)
				if err != nil {
					return SchedStats{}, err
				}
				for done := false; !done; {
					if done, err = pr.Step(context.Background()); err != nil {
						return SchedStats{}, err
					}
					if !done {
						if _, err := pr.Suspend(); err != nil {
							return SchedStats{}, err
						}
					}
				}
				return pr.Sched(), nil
			}()
			if err != nil {
				t.Fatalf("%s: uncompressed reference: %v", strat, err)
			}
			if sc.SpillBytes >= plain.SpillBytes {
				t.Errorf("%s: compressed spill bytes %d not below uncompressed %d",
					strat, sc.SpillBytes, plain.SpillBytes)
			}
		}
	}
}

// TestSnapshotRestoreBitIdenticalCompressed lifts the compressed
// suspend/resume test across the serialization boundary: checkpoint at
// every layer boundary, JSON round trip, restore into a fresh Run.
func TestSnapshotRestoreBitIdenticalCompressed(t *testing.T) {
	net := nn.MustBuild("squeezenet-bypass")
	cfg := compressedDefault(t)
	for _, strat := range Strategies() {
		want, err := Simulate(net, cfg, strat, nil)
		if err != nil {
			t.Fatalf("%s: Simulate: %v", strat, err)
		}
		r, err := NewRun(net, cfg, strat, nil, nil)
		if err != nil {
			t.Fatalf("%s: NewRun: %v", strat, err)
		}
		for done := false; !done; {
			done, err = r.Step(context.Background())
			if err != nil {
				t.Fatalf("%s: step at layer %d: %v", strat, r.NextLayer(), err)
			}
			if done {
				break
			}
			if _, err := r.Suspend(); err != nil {
				t.Fatalf("%s: suspend at layer %d: %v", strat, r.NextLayer(), err)
			}
			snap, err := r.Snapshot(0)
			if err != nil {
				t.Fatalf("%s: snapshot at layer %d: %v", strat, r.NextLayer(), err)
			}
			r, err = RestoreRun(net, cfg, roundtrip(t, snap))
			if err != nil {
				t.Fatalf("%s: restore at layer %d: %v", strat, snap.Next, err)
			}
		}
		got, err := r.Result()
		if err != nil {
			t.Fatalf("%s: Result: %v", strat, err)
		}
		if g, w := runJSON(t, got), runJSON(t, want); g != w {
			t.Errorf("%s: compressed snapshot/restore changed RunStats\n got %s\nwant %s", strat, g, w)
		}
	}
}
