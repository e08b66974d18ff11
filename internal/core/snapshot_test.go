package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"shortcutmining/internal/fault"
	"shortcutmining/internal/metrics"
	"shortcutmining/internal/nn"
	"shortcutmining/internal/tensor"
	"shortcutmining/internal/trace"
)

// roundtrip encodes a snapshot to JSON and decodes it back, the way a
// journal checkpoint record carries it across a process boundary.
func roundtrip(t *testing.T, snap *RunSnapshot) *RunSnapshot {
	t.Helper()
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("marshal snapshot: %v", err)
	}
	var got RunSnapshot
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatalf("unmarshal snapshot: %v", err)
	}
	return &got
}

// TestSnapshotRestoreBitIdentical is the suspend-at-every-boundary
// golden test lifted across a serialization boundary: at every layer
// boundary the run is suspended and snapshotted from the previous
// boundary on, the link is JSON-round-tripped and appended to the
// chain, and the folded chain is restored into a brand-new Run (fresh
// pool, fresh channel) and continued. The final RunStats must be
// bit-identical to the uninterrupted Simulate for every strategy.
func TestSnapshotRestoreBitIdentical(t *testing.T) {
	net := nn.MustBuild("squeezenet-bypass")
	cfg := Default()
	for _, strat := range Strategies() {
		want, err := Simulate(net, cfg, strat, nil)
		if err != nil {
			t.Fatalf("%s: Simulate: %v", strat, err)
		}
		r, err := NewRun(net, cfg, strat, nil, nil)
		if err != nil {
			t.Fatalf("%s: NewRun: %v", strat, err)
		}
		restores := 0
		var chain []*RunSnapshot
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
			from := 0
			if len(chain) > 0 {
				from = chain[len(chain)-1].Next
			}
			link, err := r.Snapshot(from)
			if err != nil {
				t.Fatalf("%s: snapshot at layer %d: %v", strat, r.NextLayer(), err)
			}
			chain = append(chain, roundtrip(t, link))
			snap, err := FoldSnapshots(chain)
			if err != nil {
				t.Fatalf("%s: fold at layer %d: %v", strat, link.Next, err)
			}
			r, err = RestoreRun(net, cfg, snap)
			if err != nil {
				t.Fatalf("%s: restore at layer %d: %v", strat, snap.Next, err)
			}
			if !r.Suspended() {
				t.Fatalf("%s: restored run not suspended", strat)
			}
			restores++
		}
		got, err := r.Result()
		if err != nil {
			t.Fatalf("%s: Result: %v", strat, err)
		}
		if g, w := runJSON(t, got), runJSON(t, want); g != w {
			t.Errorf("%s: snapshot/restore changed RunStats\n got %s\nwant %s", strat, g, w)
		}
		if restores != r.NumLayers()-1 {
			t.Errorf("%s: %d restores, want %d (one per interior boundary)", strat, restores, r.NumLayers()-1)
		}
		if sc := r.Sched(); sc.Resumes == 0 {
			t.Errorf("%s: restored run resumed nothing: %+v", strat, sc)
		}
	}
}

// TestSnapshotSkipsUnreadLayers: a layer whose output no later layer
// reads leaves no resident record, and neither does a feature map whose
// last reader has run (here the input image), so a snapshot lists only
// the feature maps still to be read, and restoring it finishes
// bit-identical to the uninterrupted run.
func TestSnapshotSkipsUnreadLayers(t *testing.T) {
	b := nn.NewBuilder("unread-branch", tensor.Shape{C: 16, H: 28, W: 28})
	x := b.Conv("a", b.InputName(), 16, 3, 1, 1)
	b.Conv("unread", x, 16, 3, 1, 1)
	b.Conv("c", b.Conv("b", x, 16, 3, 1, 1), 16, 3, 1, 1)
	net := b.MustFinish()
	cfg := Default()
	want, err := Simulate(net, cfg, SCM, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRun(net, cfg, SCM, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for r.NextLayer() < 3 { // input, a, unread
		if _, err := r.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Suspend(); err != nil {
		t.Fatal(err)
	}
	snap, err := r.Snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	var producers []int
	for _, rs := range snap.Residents {
		producers = append(producers, rs.Producer)
	}
	if len(producers) != 1 || producers[0] != 1 {
		t.Errorf("snapshot residents for producers %v, want [1] (a; not the consumed input, not unread)", producers)
	}
	r, err = RestoreRun(net, cfg, roundtrip(t, snap))
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.complete(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if g, w := runJSON(t, got), runJSON(t, want); g != w {
		t.Errorf("snapshot/restore changed RunStats\n got %s\nwant %s", g, w)
	}
}

// TestSnapshotSchedLedgerSurvives: the multi-tenancy cost ledger rides
// along with the snapshot so a restored run reports the full
// suspend/resume history, not just the post-restore part.
func TestSnapshotSchedLedgerSurvives(t *testing.T) {
	net := nn.MustBuild("resnet18")
	cfg := Default()
	r, err := NewRun(net, cfg, SCM, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := r.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Suspend(); err != nil {
		t.Fatal(err)
	}
	snap, err := r.Snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	before := r.Sched()
	r2, err := RestoreRun(net, cfg, roundtrip(t, snap))
	if err != nil {
		t.Fatal(err)
	}
	if got := r2.Sched(); got != before {
		t.Errorf("restored ledger = %+v, want %+v", got, before)
	}
	for done := false; !done; {
		if done, err = r2.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	after := r2.Sched()
	if after.Suspends != before.Suspends || after.Resumes != before.Resumes+1 {
		t.Errorf("ledger after restore+finish = %+v (before %+v)", after, before)
	}
}

// TestSnapshotExplicitNop: an explicit trace.Nop{} recorder emits
// nothing, so the run counts as untraced — it snapshots, and the
// restored run finishes bit-identical to an uninterrupted one. (A
// recording trace.Buffer is still refused; see TestSnapshotRefusals.)
func TestSnapshotExplicitNop(t *testing.T) {
	net := nn.MustBuild("resnet18")
	cfg := Default()
	want, err := Simulate(net, cfg, SCM, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRun(net, cfg, SCM, trace.Nop{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for r.NextLayer() < r.NumLayers()/2 {
		if _, err := r.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Suspend(); err != nil {
		t.Fatal(err)
	}
	snap, err := r.Snapshot(0)
	if err != nil {
		t.Fatalf("Snapshot of a trace.Nop run: %v", err)
	}
	r, err = RestoreRun(net, cfg, roundtrip(t, snap))
	if err != nil {
		t.Fatal(err)
	}
	for done := false; !done; {
		if done, err = r.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	got, err := r.Result()
	if err != nil {
		t.Fatal(err)
	}
	if g, w := runJSON(t, got), runJSON(t, want); g != w {
		t.Errorf("restored trace.Nop run drifted\n got %s\nwant %s", g, w)
	}
}

// TestSnapshotRefusals pins the attachment and lifecycle guards.
func TestSnapshotRefusals(t *testing.T) {
	net := nn.MustBuild("plain34")
	cfg := Default()

	t.Run("not suspended", func(t *testing.T) {
		r, err := NewRun(net, cfg, SCM, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Snapshot(0); err == nil || !strings.Contains(err.Error(), "suspended") {
			t.Errorf("Snapshot on running run: err = %v, want suspension requirement", err)
		}
	})
	t.Run("traced", func(t *testing.T) {
		r, err := NewRun(net, cfg, SCM, &trace.Buffer{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		mustSuspend(t, r)
		if _, err := r.Snapshot(0); err == nil || !strings.Contains(err.Error(), "traced") {
			t.Errorf("Snapshot of traced run: err = %v, want refusal", err)
		}
	})
	t.Run("observed", func(t *testing.T) {
		r, err := NewRun(net, cfg, SCM, nil, metrics.New())
		if err != nil {
			t.Fatal(err)
		}
		mustSuspend(t, r)
		if _, err := r.Snapshot(0); err == nil || !strings.Contains(err.Error(), "observed") {
			t.Errorf("Snapshot of observed run: err = %v, want refusal", err)
		}
	})
	t.Run("fault-injected", func(t *testing.T) {
		fcfg := cfg
		fcfg.Faults = &fault.Spec{Seed: 3, DropProb: 0.1}
		r, err := NewRun(net, fcfg, SCM, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		mustSuspend(t, r)
		if _, err := r.Snapshot(0); err == nil || !strings.Contains(err.Error(), "fault") {
			t.Errorf("Snapshot of fault-injected run: err = %v, want refusal", err)
		}
	})
}

func mustSuspend(t *testing.T, r *Run) {
	t.Helper()
	if _, err := r.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Suspend(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotValidate rejects malformed snapshots with classified
// errors instead of building a run that corrupts state later.
func TestSnapshotValidate(t *testing.T) {
	net := nn.MustBuild("plain34")
	cfg := Default()
	r, err := NewRun(net, cfg, SCM, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := r.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Suspend(); err != nil {
		t.Fatal(err)
	}
	good, err := r.Snapshot(0)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		mutate func(s *RunSnapshot)
		want   string
	}{
		{"version", func(s *RunSnapshot) { s.Version = 99 }, "version"},
		{"network", func(s *RunSnapshot) { s.Network = "alexnet" }, "network"},
		{"next out of range", func(s *RunSnapshot) { s.Next = len(net.Layers) + 3 }, "next layer"},
		{"layer records", func(s *RunSnapshot) { s.Scratch.Layers = s.Scratch.Layers[:1] }, "layer records"},
		{"negative clock", func(s *RunSnapshot) { s.Clock = -1 }, "cycle cursor"},
		{"resident producer", func(s *RunSnapshot) {
			s.Residents = append(s.Residents, ResidentSnapshot{Producer: 5000})
		}, "producer"},
		{"unexecuted resident", func(s *RunSnapshot) {
			s.Residents = append(s.Residents, ResidentSnapshot{Producer: s.Next})
		}, "executed layers"},
		{"duplicate resident", func(s *RunSnapshot) {
			s.Residents = append(s.Residents, s.Residents[0])
		}, "duplicate"},
		{"resident bytes", func(s *RunSnapshot) {
			s.Residents[0].OnChip = s.Residents[0].Total + 1
		}, "byte counts"},
		{"consumers left", func(s *RunSnapshot) {
			s.Residents[0].ConsumersLeft++
		}, "consumers left"},
		{"last use", func(s *RunSnapshot) {
			s.Residents[0].LastUse = -1
		}, "last use"},
		// A needed producer without its record would panic on a nil
		// resident at the next Step.
		{"missing resident", func(s *RunSnapshot) {
			s.Residents, s.Saved = nil, nil
		}, "no resident record"},
		{"saved role", func(s *RunSnapshot) {
			s.Saved = append(s.Saved, SavedBuffer{Producer: good.Residents[0].Producer, Banks: 1, Role: 42})
		}, "role"},
		{"saved banks", func(s *RunSnapshot) {
			s.Saved = append(s.Saved, SavedBuffer{Producer: good.Residents[0].Producer, Banks: 0})
		}, "banks"},
		{"saved orphan", func(s *RunSnapshot) {
			s.Saved = append(s.Saved, SavedBuffer{Producer: len(net.Layers) - 1, Banks: 1})
		}, "no resident"},
		// The labels and the stats' network flow into the restored
		// RunStats, so they must agree with the features and network.
		{"label", func(s *RunSnapshot) { s.Label = "baseline" }, "labels"},
		{"empty label", func(s *RunSnapshot) { s.Label = "" }, "labels"},
		{"features", func(s *RunSnapshot) { s.Features = Baseline.Features() }, "labels"},
		{"stats strategy", func(s *RunSnapshot) { s.Scratch.Strategy = "fm-reuse" }, "labels"},
		{"stats network", func(s *RunSnapshot) { s.Scratch.Network = "alexnet" }, "network"},
		// A link that does not start at layer 0 lacks the records of
		// the layers before it; only a folded chain restores.
		{"delta link", func(s *RunSnapshot) { s.From = 1 }, "fold"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := roundtrip(t, good)
			tc.mutate(s)
			_, err := RestoreRun(net, cfg, s)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("RestoreRun(%s) = %v, want error containing %q", tc.name, err, tc.want)
			}
		})
	}

	if _, err := RestoreRun(net, cfg, nil); err == nil {
		t.Error("RestoreRun(nil) succeeded")
	}
	fcfg := cfg
	fcfg.Faults = &fault.Spec{Seed: 1, DropProb: 0.5}
	if _, err := RestoreRun(net, fcfg, roundtrip(t, good)); err == nil ||
		!strings.Contains(err.Error(), "fault") {
		t.Errorf("RestoreRun under faulty config = %v, want refusal", err)
	}

	// A snapshot is bound to the platform it was taken on. One without
	// a platform hash (version 1 predates it) restores unchecked.
	t.Run("platform", func(t *testing.T) {
		other := cfg
		other.Pool.NumBanks++
		if _, err := RestoreRun(net, other, roundtrip(t, good)); !errors.Is(err, ErrPlatformMismatch) {
			t.Errorf("RestoreRun under another platform = %v, want ErrPlatformMismatch", err)
		}
		unbound := roundtrip(t, good)
		unbound.Platform = ""
		if _, err := RestoreRun(net, other, unbound); err != nil {
			t.Errorf("RestoreRun of a snapshot without a platform hash = %v, want no check", err)
		}
		if _, err := RestoreRun(net, cfg, roundtrip(t, good)); err != nil {
			t.Errorf("RestoreRun under the snapshot's own platform = %v", err)
		}
	})
}

// snapshotChain runs net to layer at, snapshotting every k layers from
// the previous link on, and returns the JSON-round-tripped links.
func snapshotChain(t testing.TB, net *nn.Network, cfg Config, strat Strategy, k, at int) []*RunSnapshot {
	t.Helper()
	r, err := NewRun(net, cfg, strat, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var chain []*RunSnapshot
	from := 0
	for r.NextLayer() < at {
		if _, err := r.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
		if r.NextLayer()%k != 0 {
			continue
		}
		if _, err := r.Suspend(); err != nil {
			t.Fatal(err)
		}
		link, err := r.Snapshot(from)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(link)
		if err != nil {
			t.Fatal(err)
		}
		var got *RunSnapshot
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatal(err)
		}
		chain = append(chain, got)
		from = link.Next
	}
	return chain
}

// TestFoldSnapshots: a chain of delta links folds into the whole
// snapshot taken at the same boundary, and every way a chain can be
// broken is refused with an error that names it.
func TestFoldSnapshots(t *testing.T) {
	net := nn.MustBuild("resnet18")
	cfg := Default()
	chain := snapshotChain(t, net, cfg, SCM, 3, 12)
	if len(chain) != 4 {
		t.Fatalf("chain of %d links, want 4", len(chain))
	}
	folded, err := FoldSnapshots(chain)
	if err != nil {
		t.Fatal(err)
	}
	// The layer records are the whole run's; the rest is the last
	// link's state (its suspend ledger counts the chain's suspensions).
	whole := snapshotChain(t, net, cfg, SCM, 12, 12)[0]
	if g, w := mustJSON(t, folded.Scratch), mustJSON(t, whole.Scratch); g != w {
		t.Errorf("folded layer records differ from the whole snapshot's\n got %s\nwant %s", g, w)
	}
	last := *chain[len(chain)-1]
	last.From, last.Scratch = 0, folded.Scratch
	if g, w := mustJSON(t, folded), mustJSON(t, &last); g != w {
		t.Errorf("folded state differs from the last link's\n got %s\nwant %s", g, w)
	}
	if err := folded.Validate(net); err != nil {
		t.Errorf("folded chain does not validate: %v", err)
	}

	cases := []struct {
		name  string
		parts func() []*RunSnapshot
		want  string
	}{
		{"empty", func() []*RunSnapshot { return nil }, "no snapshots"},
		{"nil link", func() []*RunSnapshot { return []*RunSnapshot{chain[0], nil} }, "nil"},
		{"headless", func() []*RunSnapshot { return chain[1:] }, "starts at layer 3"},
		{"gap", func() []*RunSnapshot { return []*RunSnapshot{chain[0], chain[2]} }, "predecessor ends at 3"},
		{"repeat", func() []*RunSnapshot { return []*RunSnapshot{chain[0], chain[0]} }, "predecessor"},
		{"records", func() []*RunSnapshot {
			c := *chain[1]
			c.Scratch.Layers = c.Scratch.Layers[1:]
			return []*RunSnapshot{chain[0], &c}
		}, "layer records"},
		{"network", func() []*RunSnapshot {
			c := *chain[1]
			c.Network = "resnet34"
			return []*RunSnapshot{chain[0], &c}
		}, "resnet34"},
		{"label", func() []*RunSnapshot {
			c := *chain[1]
			c.Label = "baseline"
			return []*RunSnapshot{chain[0], &c}
		}, "baseline"},
		{"version", func() []*RunSnapshot {
			c := *chain[1]
			c.Version = 3
			return []*RunSnapshot{chain[0], &c}
		}, "version 3"},
		// Version 1 is a whole snapshot: it may head a chain, nothing more.
		{"version 1 link", func() []*RunSnapshot {
			c := *chain[1]
			c.Version = 1
			return []*RunSnapshot{chain[0], &c}
		}, "version 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := FoldSnapshots(tc.parts()); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("FoldSnapshots(%s) = %v, want error containing %q", tc.name, err, tc.want)
			}
		})
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// readV1Snapshot decodes testdata/snapshot_v1_resnet18.json: a whole
// version 1 snapshot of resnet18 under SCM on the default platform,
// suspended at layer 10, as the build before delta snapshots wrote it.
func readV1Snapshot(t testing.TB) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "snapshot_v1_resnet18.json"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSnapshotV1Head: a version 1 snapshot heads a chain. Alone, and
// followed by version 2 links that a run restored from it took, it
// folds and restores to RunStats bit-identical to the uninterrupted
// run.
func TestSnapshotV1Head(t *testing.T) {
	net := nn.MustBuild("resnet18")
	cfg := Default()
	want, err := Simulate(net, cfg, SCM, nil)
	if err != nil {
		t.Fatal(err)
	}
	var head *RunSnapshot
	if err := json.Unmarshal(readV1Snapshot(t), &head); err != nil {
		t.Fatal(err)
	}
	if head.Version != 1 || head.From != 0 || head.Platform != "" {
		t.Fatalf("fixture is version %d from %d platform %q, want a version 1 head", head.Version, head.From, head.Platform)
	}
	chain := []*RunSnapshot{head}
	for step := 0; step < 2; step++ {
		snap, err := FoldSnapshots(chain)
		if err != nil {
			t.Fatal(err)
		}
		r, err := RestoreRun(net, cfg, snap)
		if err != nil {
			t.Fatal(err)
		}
		// Finish the run restored from the chain so far.
		got, err := r.complete(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if g, w := runJSON(t, got), runJSON(t, want); g != w {
			t.Fatalf("chain of %d links: restore changed RunStats\n got %s\nwant %s", len(chain), g, w)
		}
		// Extend the chain by one version 2 link four layers on.
		if r, err = RestoreRun(net, cfg, snap); err != nil {
			t.Fatal(err)
		}
		for r.NextLayer() < snap.Next+4 {
			if _, err := r.Step(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := r.Suspend(); err != nil {
			t.Fatal(err)
		}
		link, err := r.Snapshot(snap.Next)
		if err != nil {
			t.Fatal(err)
		}
		if link.Version != SnapshotVersion || link.Platform == "" {
			t.Fatalf("link after a version 1 head is version %d with platform %q", link.Version, link.Platform)
		}
		chain = append(chain, roundtrip(t, link))
	}
}

// FuzzRestoreRun feeds RestoreRun what journal replay feeds it: a
// job's chain of checkpoints, here a stream of RunSnapshot JSON
// documents, folded by FoldSnapshots. A chain either is refused with an
// error (by FoldSnapshots, Validate, RestoreRun or a later Step) or
// steps to completion; no input may panic. The corpus holds whole
// snapshots taken at several layer boundaries of two networks under
// every strategy, chains of links taken every layer and every three
// layers, and a version 1 snapshot alone and heading version 2 links.
func FuzzRestoreRun(f *testing.F) {
	cfg := Default()
	nets := map[string]*nn.Network{}
	stream := func(chain []*RunSnapshot) []byte {
		var b []byte
		for _, s := range chain {
			doc, err := json.Marshal(s)
			if err != nil {
				f.Fatal(err)
			}
			b = append(append(b, doc...), '\n')
		}
		return b
	}
	var mislabelled *RunSnapshot
	for _, name := range []string{"resnet18", "squeezenet-bypass"} {
		net := nn.MustBuild(name)
		nets[name] = net
		n := len(net.Layers)
		for _, strat := range Strategies() {
			for _, at := range []int{1, n / 3, 2 * n / 3, n - 1} {
				whole := snapshotChain(f, net, cfg, strat, at, at)
				f.Add(stream(whole))
				if mislabelled == nil {
					mislabelled = whole[0]
				}
			}
		}
		f.Add(stream(snapshotChain(f, net, cfg, SCM, 1, n-1)))
		f.Add(stream(snapshotChain(f, net, cfg, SCM, 3, n-1)))
	}
	// A snapshot whose label disagrees with its features.
	mislabelled.Label = "Strategy(7)"
	b, err := json.Marshal(mislabelled)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	// A version 1 head, alone and followed by the version 2 links a run
	// restored from it takes every three layers.
	v1 := readV1Snapshot(f)
	f.Add(v1)
	var head *RunSnapshot
	if err := json.Unmarshal(v1, &head); err != nil {
		f.Fatal(err)
	}
	if head, err = FoldSnapshots([]*RunSnapshot{head}); err != nil {
		f.Fatal(err)
	}
	r, err := RestoreRun(nets["resnet18"], cfg, head)
	if err != nil {
		f.Fatal(err)
	}
	tail := append([]byte{}, v1...)
	for from := head.Next; r.NextLayer() < len(nets["resnet18"].Layers)-1; {
		if _, err := r.Step(context.Background()); err != nil {
			f.Fatal(err)
		}
		if r.NextLayer()%3 != 0 {
			continue
		}
		if _, err := r.Suspend(); err != nil {
			f.Fatal(err)
		}
		link, err := r.Snapshot(from)
		if err != nil {
			f.Fatal(err)
		}
		tail = append(tail, stream([]*RunSnapshot{link})...)
		from = link.Next
	}
	f.Add(tail)
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var parts []*RunSnapshot
		for dec := json.NewDecoder(bytes.NewReader(data)); ; {
			var s *RunSnapshot
			if err := dec.Decode(&s); err == io.EOF {
				break
			} else if err != nil {
				return
			}
			parts = append(parts, s)
		}
		snap, err := FoldSnapshots(parts)
		if err != nil {
			return
		}
		net := nets["resnet18"]
		if nets[snap.Network] != nil {
			net = nets[snap.Network]
		}
		r, err := RestoreRun(net, cfg, snap)
		if err != nil {
			return
		}
		for done := false; !done; {
			if done, err = r.Step(context.Background()); err != nil {
				return
			}
		}
	})
}
