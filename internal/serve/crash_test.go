package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"testing"
	"time"

	"shortcutmining/internal/chaos"
	"shortcutmining/internal/compress"
	"shortcutmining/internal/core"
	"shortcutmining/internal/dse"
	"shortcutmining/internal/journal"
	"shortcutmining/internal/nn"
	"shortcutmining/internal/sched"
)

// crashChildEnv names the journal directory handed to the re-executed
// child process; its presence is what turns TestCrashChild from a skip
// into the workload half of the kill-and-restart e2e.
const crashChildEnv = "SCM_CRASH_JOURNAL"

// crashChildJobs is the mixed workload the child submits: six
// checkpointable simulations (distinct cache keys), two sweeps, one
// schedule. The parent rebuilds simulate requests from journaled
// payloads, so this list only needs to stay in sync with itself.
const crashChildJobs = 9

// TestCrashChild is not a test of its own: re-executed by
// TestCrashRecoveryE2E with the journal env var set, it builds a
// journaled engine, submits the workload, and blocks until SIGKILLed.
func TestCrashChild(t *testing.T) {
	dir := os.Getenv(crashChildEnv)
	if dir == "" {
		t.Skip("crash-child helper; driven by TestCrashRecoveryE2E")
	}
	if err := runCrashChild(dir); err != nil {
		fmt.Fprintln(os.Stderr, "crash child:", err)
		os.Exit(2)
	}
	select {} // hold the jobs mid-flight until the parent kills us
}

func runCrashChild(dir string) error {
	// Slow-disk chaos stretches every journal append (accepted, running,
	// each per-layer checkpoint), so the simulations are still
	// mid-network long after the parent has seen their first checkpoint
	// records — the SIGKILL lands on genuinely in-flight work.
	spec, err := chaos.ParseSpec("seed=7;slow-disk:ms=40")
	if err != nil {
		return err
	}
	inj, err := chaos.New(spec)
	if err != nil {
		return err
	}
	jnl, _, err := journal.Open(dir, journal.Options{Now: time.Now, Latency: inj.JournalLatency})
	if err != nil {
		return err
	}
	e := NewEngine(Options{Workers: 2, Journal: jnl, CheckpointLayers: 1, Chaos: inj})

	for batch := 1; batch <= 6; batch++ {
		net, err := nn.Build("resnet18")
		if err != nil {
			return err
		}
		cfg := core.Default()
		cfg.Batch = batch
		// Half the fleet runs with the interlayer codec on, so the crash
		// lands on checkpoints carrying the compression tallies and the
		// restart's bit-compare covers the compressed resume path too.
		if batch%2 == 0 {
			cc, err := compress.ParseSpec("zvc:sparsity=0.5,enc=2,dec=2")
			if err != nil {
				return err
			}
			cfg.Compression = cc
		}
		if _, err := e.SubmitSimulate(Request{Net: net, Cfg: cfg, Strategy: core.SCM}); err != nil {
			return err
		}
	}
	for i := 0; i < 2; i++ {
		net, err := nn.Build("squeezenet-bypass")
		if err != nil {
			return err
		}
		cfg := core.Default()
		cfg.Batch = i + 1
		if _, err := e.SubmitSweep(SweepRequest{
			Net: net, Base: cfg,
			Space: dse.Space{Banks: []int{34}, BankKiB: []int{16},
				PE: [][2]int{{32, 32}}, FmapGBps: []float64{2.0}},
		}); err != nil {
			return err
		}
	}
	scn, err := sched.ParseSpec("seed=11;policy=rr;quantum=2;" +
		"stream=squeezenet-bypass:n=2,gap=100000;stream=densechain:n=2,gap=80000")
	if err != nil {
		return err
	}
	if _, err := e.SubmitSchedule(ScheduleRequest{Cfg: core.Default(), Spec: scn}); err != nil {
		return err
	}
	return nil
}

// TestCrashRecoveryE2E is the crash-resilience acceptance test: a
// child process with a journaled, checkpointing engine is SIGKILLed
// with nine mixed jobs in flight; a fresh engine over the same journal
// must bring every accepted job to a terminal state — no losses, no
// double completions — and resumed simulations must produce RunStats
// bit-identical to uninterrupted runs.
func TestCrashRecoveryE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a child process and runs full simulations")
	}
	dir := t.TempDir()

	child := exec.Command(os.Args[0], "-test.run=^TestCrashChild$")
	child.Env = append(os.Environ(), crashChildEnv+"="+dir)
	var childOut bytes.Buffer
	child.Stdout = &childOut
	child.Stderr = &childOut
	if err := child.Start(); err != nil {
		t.Fatal(err)
	}
	killed := false
	defer func() {
		if !killed {
			child.Process.Kill()
			child.Wait()
		}
	}()

	// Kill once the workload is fully accepted and at least one
	// simulation has journaled a checkpoint it has not yet completed:
	// that guarantees the restart exercises the resume path.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("child never reached a killable state; output:\n%s", childOut.String())
		}
		recs, err := journal.ReadAll(dir)
		if err == nil && killableState(recs) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := child.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	child.Wait() // exits on SIGKILL; the error is the point
	killed = true

	// Restart: recover a fresh engine from the surviving journal.
	jnl, recs, err := journal.Open(dir, journal.Options{Now: time.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	accepted := make(map[string]journal.Record)
	for _, rec := range recs {
		if rec.Op == journal.OpAccepted {
			accepted[rec.Job] = rec
		}
	}
	if len(accepted) != crashChildJobs {
		t.Fatalf("journal has %d accepted jobs, want %d; child output:\n%s",
			len(accepted), crashChildJobs, childOut.String())
	}

	e := NewEngine(Options{Workers: 4, Journal: jnl, CheckpointLayers: 1})
	defer e.Drain(context.Background())
	report, err := e.Recover(recs)
	if err != nil {
		t.Fatal(err)
	}
	if got := report.Requeued + report.Resumed + report.Interrupted + report.Restored; got != crashChildJobs {
		t.Fatalf("recovery classified %d jobs (%s), want %d", got, report, crashChildJobs)
	}
	if report.Resumed == 0 {
		t.Errorf("no job resumed from a checkpoint (report %s)", report)
	}

	// Zero losses: every accepted job is visible and reaches a terminal
	// state. Simulations here take seconds, so the poll is generous.
	for id := range accepted {
		j, ok := e.Job(id)
		if !ok {
			t.Fatalf("job %s lost across the crash", id)
		}
		select {
		case <-j.Done():
		case <-time.After(120 * time.Second):
			t.Fatalf("job %s not terminal after recovery (state %s)", id, j.View().State)
		}
	}

	// Bit-identical: every simulate job that completed — resumed
	// mid-network or requeued from scratch — must match a direct,
	// uninterrupted run of the request recovered from its own journaled
	// payload.
	compared := 0
	for id, rec := range accepted {
		if rec.Kind != "simulate" {
			continue
		}
		j, _ := e.Job(id)
		v := j.View()
		if v.State != JobDone {
			continue // interrupted pre-checkpoint: classified, not comparable
		}
		_, decoded, err := decodePayload(&rec)
		if err != nil {
			t.Fatalf("job %s payload: %v", id, err)
		}
		req, ok := decoded.(Request)
		if !ok {
			t.Fatalf("job %s request: payload decoded to %T", id, decoded)
		}
		direct, err := core.SimulateContext(context.Background(), req.Net, req.Cfg, req.Strategy, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := json.Marshal(v.Stats)
		want, _ := json.Marshal(direct)
		if string(got) != string(want) {
			t.Errorf("job %s RunStats differ from direct run:\n%s\nvs\n%s", id, got, want)
		}
		compared++
	}
	if compared == 0 {
		t.Error("no completed simulate jobs to compare")
	}

	// Zero double completions: drain, then check the journal holds at
	// most one terminal record per job (recovery compacted pre-crash
	// terminals; every post-restart job finishes exactly once).
	if err := e.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	final, err := journal.ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	terminals := make(map[string]int)
	for _, rec := range final {
		if rec.Op.Terminal() {
			terminals[rec.Job]++
		}
	}
	for job, n := range terminals {
		if n > 1 {
			t.Errorf("job %s has %d terminal records — completed twice", job, n)
		}
	}
}

// killableState reports whether the journal shows the full workload
// accepted plus at least one checkpointed simulation that has not yet
// finished — the moment the SIGKILL proves something.
func killableState(recs []journal.Record) bool {
	accepted := 0
	checkpointed := make(map[string]bool)
	terminal := make(map[string]bool)
	for _, rec := range recs {
		switch {
		case rec.Op == journal.OpAccepted:
			accepted++
		case rec.Op == journal.OpCheckpoint:
			checkpointed[rec.Job] = true
		case rec.Op.Terminal():
			terminal[rec.Job] = true
		}
	}
	if accepted < crashChildJobs {
		return false
	}
	for job := range checkpointed {
		if !terminal[job] {
			return true
		}
	}
	return false
}
