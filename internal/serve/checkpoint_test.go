package serve

import (
	"context"
	"encoding/json"
	"testing"

	"shortcutmining/internal/core"
	"shortcutmining/internal/journal"
	"shortcutmining/internal/nn"
)

// TestCheckpointBytesBound: a job's checkpoints carry only the layers
// run since the previous one, so the journal lines of a whole chain
// grow linearly with network depth. For resnet152 under SCM they stay
// within 2x the final result's JSON at a checkpoint every 8 layers and
// within 8x at one every layer; whole-run snapshots wrote 18.9x and
// 147x. Every chain folds into a snapshot that validates.
func TestCheckpointBytesBound(t *testing.T) {
	net, err := nn.Build("resnet152")
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Net: net, Cfg: core.Default(), Strategy: core.SCM}
	for _, tc := range []struct {
		k     int
		bound float64
	}{{8, 2}, {1, 8}} {
		dir := t.TempDir()
		jnl, _, err := journal.Open(dir, journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(Options{Workers: 1, Journal: jnl, CheckpointLayers: tc.k, CompactEvery: 1 << 30})
		res, err := e.runCheckpointed(context.Background(), req, e.adoptJob("j000001", "simulate", ""), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := jnl.Close(); err != nil {
			t.Fatal(err)
		}
		result, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := journal.ReadAll(dir)
		if err != nil {
			t.Fatal(err)
		}
		var chain []*core.RunSnapshot
		lineBytes := 0
		for _, rec := range recs {
			if rec.Op != journal.OpCheckpoint {
				continue
			}
			line, err := journal.EncodeRecord(rec)
			if err != nil {
				t.Fatal(err)
			}
			lineBytes += len(line)
			var link *core.RunSnapshot
			if err := json.Unmarshal(rec.Payload, &link); err != nil {
				t.Fatal(err)
			}
			chain = append(chain, link)
		}
		if want := (len(net.Layers) - 1) / tc.k; len(chain) != want {
			t.Fatalf("k=%d: %d checkpoints, want %d", tc.k, len(chain), want)
		}
		folded, err := core.FoldSnapshots(chain)
		if err != nil {
			t.Fatalf("k=%d: %v", tc.k, err)
		}
		if err := folded.Validate(net); err != nil {
			t.Fatalf("k=%d: folded chain: %v", tc.k, err)
		}
		ratio := float64(lineBytes) / float64(len(result))
		t.Logf("k=%d: %d checkpoints, %d line bytes, %.2fx the %d-byte result", tc.k, len(chain), lineBytes, ratio, len(result))
		if ratio > tc.bound {
			t.Errorf("k=%d: checkpoint lines are %.2fx the result's JSON, bound %.0fx", tc.k, ratio, tc.bound)
		}
	}
}

// TestRecoverCheckpointChains: recovery folds a job's whole chain and
// resumes from its last link bit-identically; a chain with a missing
// link, a link that does not decode, or links taken under another
// platform leaves the job interrupted instead.
func TestRecoverCheckpointChains(t *testing.T) {
	req := engineRequest(t, 1)
	other := engineRequest(t, 2)
	// links runs req's network under cfg to layer 12, snapshotting every
	// 4 layers from the previous link on.
	links := func(cfg core.Config) [][]byte {
		r, err := core.NewRun(req.Net, cfg, req.Strategy, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		var out [][]byte
		for from := 0; r.NextLayer() < 12; {
			if _, err := r.Step(context.Background()); err != nil {
				t.Fatal(err)
			}
			if r.NextLayer()%4 != 0 {
				continue
			}
			if _, err := r.Suspend(); err != nil {
				t.Fatal(err)
			}
			snap, err := r.Snapshot(from)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(snap)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, b)
			from = snap.Next
		}
		return out
	}
	good, foreign := links(req.Cfg), links(other.Cfg)
	chains := []struct {
		id    string
		links [][]byte
		want  JobState
	}{
		{"j000001", good, JobDone},
		{"j000002", [][]byte{good[0], good[2]}, JobInterrupted},
		{"j000003", [][]byte{good[0], []byte(`{"version":2,"from":"four"}`), good[2]}, JobInterrupted},
		{"j000004", foreign, JobInterrupted},
	}

	dir := t.TempDir()
	jnl1, _, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	payload := acceptedPayload(t, simulateKind, req)
	for _, c := range chains {
		recs := []journal.Record{
			{Job: c.id, Op: journal.OpAccepted, Kind: "simulate", Payload: payload},
			{Job: c.id, Op: journal.OpRunning, Kind: "simulate"},
		}
		for i, b := range c.links {
			recs = append(recs, journal.Record{Job: c.id, Op: journal.OpCheckpoint, Kind: "simulate", Layer: 4 * (i + 1), Payload: b})
		}
		for _, rec := range recs {
			if err := jnl1.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := jnl1.Close(); err != nil {
		t.Fatal(err)
	}

	jnl2, recs, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(Options{Workers: 1, Journal: jnl2, CheckpointLayers: 4})
	report, err := e.Recover(recs)
	if err != nil {
		t.Fatal(err)
	}
	if want := (RecoveryReport{Resumed: 1, Interrupted: 3}); report != want {
		t.Fatalf("recovery report = %+v, want %+v", report, want)
	}
	for _, c := range chains {
		j, ok := e.Job(c.id)
		if !ok {
			t.Fatalf("job %s lost", c.id)
		}
		<-j.Done()
		if v := j.View(); v.State != c.want {
			t.Errorf("job %s ended %s (%s), want %s", c.id, v.State, v.Error, c.want)
		}
	}
	j, _ := e.Job("j000001")
	direct, err := core.Simulate(req.Net, req.Cfg, req.Strategy, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(j.View().Stats)
	want, _ := json.Marshal(direct)
	if string(got) != string(want) {
		t.Errorf("resumed RunStats differ from direct run:\n%s\nvs\n%s", got, want)
	}
	if err := e.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := jnl2.Close(); err != nil {
		t.Fatal(err)
	}
}
