package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"shortcutmining/internal/chaos"
	"shortcutmining/internal/core"
	"shortcutmining/internal/dse"
	"shortcutmining/internal/journal"
	"shortcutmining/internal/stats"
)

// settableClock is a clock tests move by hand: reads never advance it,
// so TTL and health-window arithmetic is exact.
type settableClock struct {
	mu  sync.Mutex
	now time.Time
}

func newSettableClock(base time.Time) *settableClock {
	return &settableClock{now: base}
}

func (c *settableClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *settableClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// openTestJournal opens a journal in a fresh temp dir and returns it
// with its directory; the caller owns Close.
func openTestJournal(t *testing.T, opts journal.Options) (*journal.Journal, string) {
	t.Helper()
	dir := t.TempDir()
	jnl, recovered, err := journal.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recovered))
	}
	return jnl, dir
}

func recordsFor(recs []journal.Record, job string) []journal.Record {
	var out []journal.Record
	for _, r := range recs {
		if r.Job == job {
			out = append(out, r)
		}
	}
	return out
}

// TestJournalLifecycleWriteThrough: one async job leaves exactly the
// accepted → running → done trail in the journal, with the kind, the
// correlation ID, and a replayable payload on the accepted record.
func TestJournalLifecycleWriteThrough(t *testing.T) {
	jnl, dir := openTestJournal(t, journal.Options{})
	e := NewEngine(Options{Workers: 1, Journal: jnl})
	e.simFn = func(ctx context.Context, req Request) (stats.RunStats, error) {
		return stats.RunStats{Network: "fake", TotalCycles: 7}, nil
	}

	req := engineRequest(t, 1)
	req.RequestID = "req-wt-1"
	j, err := e.SubmitSimulate(req)
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if err := e.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := journal.ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	trail := recordsFor(recs, j.ID())
	if len(trail) != 3 {
		t.Fatalf("journal trail = %d records, want 3: %+v", len(trail), trail)
	}
	wantOps := []journal.Op{journal.OpAccepted, journal.OpRunning, journal.OpDone}
	for i, rec := range trail {
		if rec.Op != wantOps[i] {
			t.Errorf("record %d op = %q, want %q", i, rec.Op, wantOps[i])
		}
		if rec.Kind != "simulate" {
			t.Errorf("record %d kind = %q, want simulate", i, rec.Kind)
		}
		if rec.RequestID != "req-wt-1" {
			t.Errorf("record %d request_id = %q", i, rec.RequestID)
		}
		if i > 0 && trail[i].Seq <= trail[i-1].Seq {
			t.Errorf("seq not increasing: %d then %d", trail[i-1].Seq, trail[i].Seq)
		}
	}
	if trail[0].Payload == nil {
		t.Fatal("accepted record has no payload")
	}
	k, decoded, err := decodePayload(&trail[0])
	if err != nil {
		t.Fatalf("accepted payload does not decode to a request: %v", err)
	}
	if _, ok := decoded.(Request); !ok || k != simulateKind {
		t.Fatalf("accepted payload decoded to a %s %T, want a simulate Request", k.name, decoded)
	}
}

// TestRejectedAdmissionJournaledTerminal: an accepted record whose job
// was then refused by admission control must not look resumable — the
// engine appends a terminal "rejected" failure so recovery restores it
// instead of re-running it.
func TestRejectedAdmissionJournaledTerminal(t *testing.T) {
	jnl, dir := openTestJournal(t, journal.Options{})
	e := NewEngine(Options{Workers: 1, QueueDepth: 1, Journal: jnl})
	release := make(chan struct{})
	e.simFn = func(ctx context.Context, req Request) (stats.RunStats, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return stats.RunStats{Network: "fake"}, nil
	}

	// Fill the worker and the single queue slot.
	if _, err := e.SubmitSimulate(engineRequest(t, 1)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "worker busy", func() bool { return e.pool.Busy() == 1 })
	if _, err := e.SubmitSimulate(engineRequest(t, 2)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "queue full", func() bool { return e.pool.QueueLen() == 1 })

	if _, err := e.SubmitSimulate(engineRequest(t, 3)); err != ErrBusy {
		t.Fatalf("overflow submission error = %v, want ErrBusy", err)
	}
	close(release)
	if err := e.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := journal.ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The rejected job is the third accepted record's job.
	var acceptedJobs []string
	for _, r := range recs {
		if r.Op == journal.OpAccepted {
			acceptedJobs = append(acceptedJobs, r.Job)
		}
	}
	if len(acceptedJobs) != 3 {
		t.Fatalf("accepted records = %d, want 3", len(acceptedJobs))
	}
	trail := recordsFor(recs, acceptedJobs[2])
	last := trail[len(trail)-1]
	if last.Op != journal.OpFailed || last.Reason != "rejected" {
		t.Fatalf("rejected job's last record = %+v, want failed/rejected", last)
	}
}

// TestCheckpointedRunBitIdentical is the durability acceptance check:
// a journaled, checkpointed simulation produces byte-identical
// RunStats to the plain simulator, while leaving checkpoint records
// (suspended core.Run snapshots) in the journal.
func TestCheckpointedRunBitIdentical(t *testing.T) {
	jnl, dir := openTestJournal(t, journal.Options{})
	e := NewEngine(Options{Workers: 1, Journal: jnl, CheckpointLayers: 2})

	req := engineRequest(t, 1)
	j, err := e.SubmitSimulate(req)
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	v := j.View()
	if v.State != JobDone || v.Stats == nil {
		t.Fatalf("checkpointed job ended %s (%s)", v.State, v.Error)
	}

	want, err := core.SimulateContext(context.Background(), req.Net, req.Cfg, req.Strategy, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(v.Stats)
	direct, _ := json.Marshal(want)
	if string(got) != string(direct) {
		t.Errorf("checkpointed RunStats differ from direct run:\n%s\nvs\n%s", got, direct)
	}

	if err := e.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := journal.ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	var checkpoints int
	for _, rec := range recordsFor(recs, j.ID()) {
		if rec.Op != journal.OpCheckpoint {
			continue
		}
		checkpoints++
		if rec.Layer <= 0 || rec.Payload == nil {
			t.Fatalf("checkpoint record missing layer or payload: %+v", rec)
		}
		var snap core.RunSnapshot
		if err := json.Unmarshal(rec.Payload, &snap); err != nil {
			t.Fatalf("checkpoint payload: %v", err)
		}
		if err := snap.Validate(req.Net); err != nil {
			t.Fatalf("checkpoint snapshot invalid: %v", err)
		}
	}
	if checkpoints < 2 {
		t.Errorf("checkpoint records = %d, want >= 2 (K=2 on resnet18)", checkpoints)
	}
	if got := e.mCheckpoints.Value(); got != int64(checkpoints) {
		t.Errorf("checkpoint counter = %d, journal has %d", got, checkpoints)
	}
}

// TestRecoverClassifiesEveryJob drives all four recovery outcomes from
// one hand-crafted journal: an accepted-only job requeues, a
// checkpointed running simulate resumes bit-identically, a running job
// without a checkpoint is interrupted, and a finished job is restored
// into the history. Job IDs survive, and the ID sequence continues
// past the recovered ones.
func TestRecoverClassifiesEveryJob(t *testing.T) {
	dir := t.TempDir()
	jnl1, recovered, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recovered))
	}

	append1 := func(rec journal.Record) {
		t.Helper()
		if err := jnl1.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	encodeDoc := func(k *jobKind, req any) []byte {
		t.Helper()
		b, err := encodePayload(k, req)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	// j000001: accepted, never started — must requeue and run.
	reqA := engineRequest(t, 1)
	append1(journal.Record{Job: "j000001", Op: journal.OpAccepted, Kind: "simulate",
		Payload: encodeDoc(simulateKind, reqA)})

	// j000002: running with a mid-network checkpoint — must resume.
	reqB := engineRequest(t, 2)
	payloadB := encodeDoc(simulateKind, reqB)
	r, err := core.NewRun(reqB.Net, reqB.Cfg, reqB.Strategy, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for r.NextLayer() < 5 {
		if _, err := r.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Suspend(); err != nil {
		t.Fatal(err)
	}
	snap, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snapBytes, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	append1(journal.Record{Job: "j000002", Op: journal.OpAccepted, Kind: "simulate", Payload: payloadB})
	append1(journal.Record{Job: "j000002", Op: journal.OpRunning, Kind: "simulate"})
	append1(journal.Record{Job: "j000002", Op: journal.OpCheckpoint, Kind: "simulate",
		Layer: snap.Next, Payload: snapBytes})

	// j000003: running, no checkpoint — must classify interrupted.
	append1(journal.Record{Job: "j000003", Op: journal.OpAccepted, Kind: "schedule",
		Payload: []byte(`{"scenario":null}`)})
	append1(journal.Record{Job: "j000003", Op: journal.OpRunning, Kind: "schedule"})

	// j000004: already done — must restore into the history only.
	append1(journal.Record{Job: "j000004", Op: journal.OpAccepted, Kind: "simulate"})
	append1(journal.Record{Job: "j000004", Op: journal.OpRunning, Kind: "simulate"})
	append1(journal.Record{Job: "j000004", Op: journal.OpDone, Kind: "simulate"})

	// j000005: accepted sweep — requeues through the sweep decoder.
	sweepReq := SweepRequest{
		Net:  reqA.Net,
		Base: core.Default(),
		Space: dse.Space{Banks: []int{34}, BankKiB: []int{16},
			PE: [][2]int{{32, 32}}, FmapGBps: []float64{2.0}},
	}
	append1(journal.Record{Job: "j000005", Op: journal.OpAccepted, Kind: "sweep",
		Payload: encodeDoc(sweepKind, sweepReq)})

	if err := jnl1.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": reopen the journal and recover into a fresh engine.
	jnl2, recs, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(Options{Workers: 2, Journal: jnl2, CheckpointLayers: 4})
	report, err := e.Recover(recs)
	if err != nil {
		t.Fatal(err)
	}
	want := RecoveryReport{Requeued: 2, Resumed: 1, Interrupted: 1, Restored: 1}
	if report != want {
		t.Fatalf("recovery report = %+v, want %+v", report, want)
	}

	// Interrupted and restored jobs are terminal immediately.
	jC, ok := e.Job("j000003")
	if !ok {
		t.Fatal("interrupted job lost")
	}
	if v := jC.View(); v.State != JobInterrupted || v.Reason != "interrupted" {
		t.Errorf("orphaned running job = %s/%q, want interrupted", v.State, v.Reason)
	}
	jD, ok := e.Job("j000004")
	if !ok {
		t.Fatal("restored job lost")
	}
	if v := jD.View(); v.State != JobDone {
		t.Errorf("restored job state = %s, want done", v.State)
	}

	// Requeued and resumed jobs run to completion under their old IDs.
	for _, id := range []string{"j000001", "j000002", "j000005"} {
		j, ok := e.Job(id)
		if !ok {
			t.Fatalf("recovered job %s not registered", id)
		}
		<-j.Done()
		if v := j.View(); v.State != JobDone {
			t.Fatalf("recovered job %s ended %s (%s)", id, v.State, v.Error)
		}
	}

	// The resumed run's result is bit-identical to an uncheckpointed one.
	jB, _ := e.Job("j000002")
	direct, err := core.SimulateContext(context.Background(), reqB.Net, reqB.Cfg, reqB.Strategy, nil)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(jB.View().Stats)
	wantJSON, _ := json.Marshal(direct)
	if string(gotJSON) != string(wantJSON) {
		t.Errorf("resumed RunStats differ from direct run:\n%s\nvs\n%s", gotJSON, wantJSON)
	}

	// The requeued sweep evaluated its one-point space.
	jE, _ := e.Job("j000005")
	if got := len(jE.View().Outcomes); got != 1 {
		t.Errorf("requeued sweep outcomes = %d, want 1", got)
	}

	// New IDs continue after the recovered ones — no reuse.
	e.simFn = func(ctx context.Context, req Request) (stats.RunStats, error) {
		return stats.RunStats{Network: "fake"}, nil
	}
	jNew, err := e.SubmitSimulate(engineRequest(t, 9))
	if err != nil {
		t.Fatal(err)
	}
	if jNew.ID() <= "j000005" {
		t.Errorf("post-recovery job ID %s does not continue the sequence", jNew.ID())
	}
	<-jNew.Done()

	if err := e.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := jnl2.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery compacted the finished job's records away; the journal
	// now holds only incomplete-at-crash history plus this process's
	// appends.
	final, err := journal.ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range final {
		if rec.Job == "j000004" {
			t.Errorf("terminal job record survived compaction: %+v", rec)
		}
	}
}

// TestRuntimeJournalCompaction: during normal uptime — no restart —
// the engine compacts the journal on its append cadence, so terminal
// jobs' records are reclaimed instead of accumulating for the life of
// the process.
func TestRuntimeJournalCompaction(t *testing.T) {
	jnl, dir := openTestJournal(t, journal.Options{})
	// Each async job appends accepted+running+done = 3 records, so
	// CompactEvery=3 triggers a compaction at each job's terminal append.
	e := NewEngine(Options{Workers: 1, Journal: jnl, CompactEvery: 3})
	e.simFn = func(ctx context.Context, req Request) (stats.RunStats, error) {
		return stats.RunStats{Network: "fake"}, nil
	}

	j, err := e.SubmitSimulate(engineRequest(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	waitUntil(t, "runtime compaction", func() bool {
		return jnl.Stats().Compactions >= 1
	})
	recs, err := journal.ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Errorf("terminal job's records survived runtime compaction: %+v", recs)
	}

	// The journal keeps working after a runtime compaction: a second
	// job writes through and compacts again.
	j2, err := e.SubmitSimulate(engineRequest(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	<-j2.Done()
	waitUntil(t, "second runtime compaction", func() bool {
		return jnl.Stats().Compactions >= 2
	})
	if err := e.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	if st := jnl.Stats(); st.Segments != 1 {
		t.Errorf("segments after runtime compactions = %d, want 1", st.Segments)
	}
}

// TestJournalLiveGauges: scm_journal_live_records and
// scm_journal_live_bytes count the live set while a job runs, and read
// 0 once every job is terminal.
func TestJournalLiveGauges(t *testing.T) {
	jnl, _ := openTestJournal(t, journal.Options{})
	e := NewEngine(Options{Workers: 1, Journal: jnl})
	release := make(chan struct{})
	e.simFn = func(ctx context.Context, req Request) (stats.RunStats, error) {
		<-release
		return stats.RunStats{Network: "fake"}, nil
	}
	gauge := func(name string) string {
		t.Helper()
		e.syncGauges()
		var page bytes.Buffer
		if err := e.reg.WriteProm(&page); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(page.String(), "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				return v
			}
		}
		t.Fatalf("no %s sample on the metrics page", name)
		return ""
	}

	j, err := e.SubmitSimulate(engineRequest(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the running record", func() bool { return jnl.Stats().LiveRecords == 2 })
	if got := gauge("scm_journal_live_records"); got != "2" {
		t.Errorf("scm_journal_live_records = %s while the job runs, want 2 (accepted, running)", got)
	}
	if got, want := gauge("scm_journal_live_bytes"), fmt.Sprint(jnl.Stats().LiveBytes); got == "0" || got != want {
		t.Errorf("scm_journal_live_bytes = %s while the job runs, want %s", got, want)
	}
	close(release)
	<-j.Done()
	waitUntil(t, "the terminal record", func() bool { return jnl.Stats().LiveRecords == 0 })
	for _, name := range []string{"scm_journal_live_records", "scm_journal_live_bytes"} {
		if got := gauge(name); got != "0" {
			t.Errorf("%s = %s once every job is terminal, want 0", name, got)
		}
	}
	if err := e.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverCompactsEmptyReplay: every Open starts a fresh segment,
// so a crash-restart loop accretes empty segments; Recover must
// reclaim them even when the replay carried zero records.
func TestRecoverCompactsEmptyReplay(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 3; i++ { // a restart loop: open, nothing durable, exit
		jnl, recs, err := journal.Open(dir, journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 0 {
			t.Fatalf("boot %d replayed %d records", i, len(recs))
		}
		if err := jnl.Close(); err != nil {
			t.Fatal(err)
		}
	}
	jnl, recs, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(Options{Workers: 1, Journal: jnl})
	defer func() {
		e.Drain(context.Background())
		jnl.Close()
	}()
	if _, err := e.Recover(recs); err != nil {
		t.Fatal(err)
	}
	if st := jnl.Stats(); st.Segments != 1 {
		t.Errorf("segments after empty-replay recovery = %d, want 1 (restart loop must not leak segments)", st.Segments)
	}
}

// TestRecoverBadPayloadInterrupts: an accepted record whose payload
// cannot be decoded is classified, not dropped and not crashed on.
func TestRecoverBadPayloadInterrupts(t *testing.T) {
	dir := t.TempDir()
	jnl1, _, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := jnl1.Append(journal.Record{Job: "j000001", Op: journal.OpAccepted,
		Kind: "simulate", Payload: []byte(`{"graph":"not a graph"}`)}); err != nil {
		t.Fatal(err)
	}
	if err := jnl1.Close(); err != nil {
		t.Fatal(err)
	}

	jnl2, recs, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(Options{Workers: 1, Journal: jnl2})
	defer func() {
		e.Drain(context.Background())
		jnl2.Close()
	}()
	report, err := e.Recover(recs)
	if err != nil {
		t.Fatal(err)
	}
	if report.Interrupted != 1 || report.Requeued != 0 {
		t.Fatalf("report = %+v, want 1 interrupted", report)
	}
	j, ok := e.Job("j000001")
	if !ok {
		t.Fatal("unrecoverable job vanished")
	}
	if v := j.View(); v.State != JobInterrupted {
		t.Errorf("state = %s, want interrupted", v.State)
	}
}

// TestRecoverNeedsJournal: Recover on a journal-less engine is a
// configuration error, not a silent no-op.
func TestRecoverNeedsJournal(t *testing.T) {
	e := NewEngine(Options{Workers: 1})
	defer e.Drain(context.Background())
	if _, err := e.Recover(nil); err == nil {
		t.Fatal("Recover without a journal succeeded")
	}
}

// TestJobTTLPruning: terminal jobs older than JobTTL leave the history
// on the next admission; younger ones stay.
func TestJobTTLPruning(t *testing.T) {
	clk := newSettableClock(time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC))
	e := NewEngine(Options{Workers: 1, JobTTL: time.Minute, MaxJobs: 100, Clock: clk.Now})
	defer e.Drain(context.Background())
	e.simFn = func(ctx context.Context, req Request) (stats.RunStats, error) {
		return stats.RunStats{Network: "fake"}, nil
	}

	j1, err := e.SubmitSimulate(engineRequest(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	<-j1.Done()

	clk.Advance(30 * time.Second)
	j2, err := e.SubmitSimulate(engineRequest(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	<-j2.Done()

	// j1 is now 70s past finish (expired), j2 only 40s (kept). The next
	// admission triggers the prune.
	clk.Advance(40 * time.Second)
	j3, err := e.SubmitSimulate(engineRequest(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	<-j3.Done()

	if _, ok := e.Job(j1.ID()); ok {
		t.Errorf("job %s survived its TTL", j1.ID())
	}
	if _, ok := e.Job(j2.ID()); !ok {
		t.Errorf("job %s pruned before its TTL", j2.ID())
	}
	if _, ok := e.Job(j3.ID()); !ok {
		t.Errorf("live job %s pruned", j3.ID())
	}
}

// TestJobTimeoutSurfacesThroughHTTP: a job that outlives JobTimeout is
// reported by the API as failed with the machine-readable "timeout"
// reason — the service failed the work, the client did not cancel.
func TestJobTimeoutSurfacesThroughHTTP(t *testing.T) {
	e := NewEngine(Options{Workers: 1, JobTimeout: 30 * time.Millisecond})
	defer e.Drain(context.Background())
	e.simFn = func(ctx context.Context, req Request) (stats.RunStats, error) {
		<-ctx.Done()
		return stats.RunStats{}, ctx.Err()
	}
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	resp, raw := postJSON(t, srv, "/v1/simulate", `{"network":"resnet18","async":true}`)
	if resp.StatusCode != 202 {
		t.Fatalf("submit = %d: %s", resp.StatusCode, raw)
	}
	var accepted jobReply
	if err := json.Unmarshal(raw, &accepted); err != nil {
		t.Fatal(err)
	}

	var view View
	waitUntil(t, "job to time out", func() bool {
		if code := getJSON(t, srv, "/v1/jobs/"+accepted.Job, &view); code != 200 {
			return false
		}
		return view.State.Terminal()
	})
	if view.State != JobFailed {
		t.Fatalf("state = %s, want failed (view %+v)", view.State, view)
	}
	if view.Reason != ReasonTimeout {
		t.Errorf("reason = %q, want %q", view.Reason, ReasonTimeout)
	}
	if !strings.Contains(view.Error, "deadline") {
		t.Errorf("error = %q, want a deadline message", view.Error)
	}
	if e.mJobsFailed.Value() == 0 {
		t.Error("timeout not counted as a failed job")
	}
}

// TestChaosJournalIODegradation: with the chaos injector forcing most
// journal appends to fail, the engine keeps serving — async jobs still
// finish, sync traffic is untouched — while /healthz degrades with a
// journal reason and the failure counters advance. The degradation
// heals once the error window passes.
func TestChaosJournalIODegradation(t *testing.T) {
	spec, err := chaos.ParseSpec("seed=1;journal-io:p=0.95")
	if err != nil {
		t.Fatal(err)
	}
	inj, err := chaos.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	jnl, _ := openTestJournal(t, journal.Options{WriteErr: inj.JournalWriteErr})
	defer jnl.Close()

	clk := newSettableClock(time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC))
	e := NewEngine(Options{Workers: 2, Journal: jnl, Chaos: inj, Clock: clk.Now})
	defer e.Drain(context.Background())
	e.simFn = func(ctx context.Context, req Request) (stats.RunStats, error) {
		return stats.RunStats{Network: "fake", TotalCycles: 1}, nil
	}
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	const jobs = 4
	for i := 0; i < jobs; i++ {
		j, err := e.SubmitSimulate(engineRequest(t, i+1))
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		if v := j.View(); v.State != JobDone {
			t.Fatalf("job %s under journal chaos ended %s (%s)", j.ID(), v.State, v.Error)
		}
	}
	// Each job attempts accepted+running+done appends; wait for the
	// terminal append that follows Done() to land.
	waitUntil(t, "journal append attempts", func() bool {
		s := jnl.Stats()
		return s.Appends+s.AppendErrors == 3*jobs
	})

	if got := e.mJournalFailures.Value(); got == 0 {
		t.Fatal("no journal failures counted under journal-io chaos")
	}
	if s := jnl.Stats(); s.AppendErrors == 0 {
		t.Fatalf("journal stats show no append errors: %+v", s)
	}
	if got := inj.Counts().IOErrors; got == 0 {
		t.Fatal("injector reports no I/O errors")
	}

	// Sync traffic still serves (and never touches the journal).
	if _, _, err := e.Simulate(context.Background(), engineRequest(t, 99)); err != nil {
		t.Fatalf("sync simulate under journal chaos: %v", err)
	}

	status, reasons := e.Health()
	if status != "degraded" || len(reasons) == 0 {
		t.Fatalf("health = %q %v, want degraded with reasons", status, reasons)
	}
	var health healthReply
	if code := getJSON(t, srv, "/healthz", &health); code != 200 {
		t.Fatalf("degraded healthz status code = %d, want 200 (still serving)", code)
	}
	if health.Status != "degraded" || len(health.Reasons) == 0 {
		t.Fatalf("healthz body = %+v, want degraded with reasons", health)
	}
	found := false
	for _, r := range health.Reasons {
		if strings.Contains(r, "journal") {
			found = true
		}
	}
	if !found {
		t.Errorf("healthz reasons %v do not mention the journal", health.Reasons)
	}

	// Past the error window, with no fresh failures, health heals.
	clk.Advance(2 * time.Minute)
	if status, _ := e.Health(); status != "ok" {
		t.Errorf("health after the error window = %q, want ok", status)
	}
}
