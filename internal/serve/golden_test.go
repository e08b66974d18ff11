package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"shortcutmining/internal/core"
	"shortcutmining/internal/dse"
	"shortcutmining/internal/journal"
	"shortcutmining/internal/nn"
	"shortcutmining/internal/sched"
	"shortcutmining/internal/stats"
)

// The goldens under testdata/ pin the serving tier's externally
// visible bytes: the journal records every job kind writes, what
// recovery makes of a crafted journal, and the HTTP replies. They were
// captured once and are compared byte for byte; -update rewrites them
// and is only for a deliberate change of those bytes.
var update = flag.Bool("update", false, "rewrite testdata/*.golden instead of comparing")

var goldenTime = time.Date(2030, 1, 2, 3, 4, 5, 0, time.UTC)

func goldenClock() time.Time { return goldenTime }

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s differs at line %d:\n got: %.400s\nwant: %.400s", path, i+1, g, w)
		}
	}
}

// encodeRecords renders records exactly as the journal frames them.
func encodeRecords(t *testing.T, recs []journal.Record) []byte {
	t.Helper()
	var out bytes.Buffer
	for _, rec := range recs {
		line, err := journal.EncodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		out.Write(line)
	}
	return out.Bytes()
}

func goldenNet(t *testing.T, name string) *nn.Network {
	t.Helper()
	net, err := nn.Build(name)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func goldenSpec(t *testing.T, spec string) *sched.Spec {
	t.Helper()
	s, err := sched.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func batchConfig(batch int) core.Config {
	cfg := core.Default()
	cfg.Batch = batch
	return cfg
}

var goldenSpace = dse.Space{Banks: []int{34}, BankKiB: []int{16}, PE: [][2]int{{64, 56}}, FmapGBps: []float64{1.0, 2.0}}

const (
	goldenScheduleSpec = "seed=4;policy=rr;quantum=3;stream=densechain:n=2,gap=200000"
	goldenClusterSpec  = "seed=3;chips=2;place=hash;stream=squeezenet:n=1"
)

// acceptedPayload is the accepted-record payload the engine journals
// for req as a job of kind k.
func acceptedPayload(t *testing.T, k *jobKind, req any) []byte {
	t.Helper()
	b, err := encodePayload(k, req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGoldenJournal pins the journal records of every job kind: plain,
// observed and checkpointed simulations, a Pareto sweep, a schedule, a
// cluster run, and an admission rejection. One worker and a settled
// journal between jobs keep the record order deterministic.
func TestGoldenJournal(t *testing.T) {
	dir := t.TempDir()
	jnl, _, err := journal.Open(dir, journal.Options{Now: goldenClock})
	if err != nil {
		t.Fatal(err)
	}
	settled := func() {
		t.Helper()
		waitUntil(t, "every job terminal in the journal", func() bool { return jnl.Stats().LiveRecords == 0 })
	}
	await := func(j *Job, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		if v := j.View(); v.State != JobDone {
			t.Fatalf("job %s ended %s: %s", v.ID, v.State, v.Error)
		}
		settled()
	}

	e := NewEngine(Options{Workers: 1, QueueDepth: 1, Journal: jnl, Clock: goldenClock, CompactEvery: 1 << 30})
	dc := goldenNet(t, "densechain")
	await(e.SubmitSimulate(Request{Net: dc, Cfg: core.Default(), Strategy: core.SCM, RequestID: "golden-plain"}))
	await(e.SubmitSimulate(Request{Net: dc, Cfg: core.Default(), Strategy: core.FMReuse, Observe: true, RequestID: "golden-observed"}))
	await(e.SubmitSweep(SweepRequest{Net: dc, Base: core.Default(), Space: goldenSpace, Parallel: 1, Pareto: true, RequestID: "golden-sweep"}))
	await(e.SubmitSchedule(ScheduleRequest{Cfg: core.Default(), Spec: goldenSpec(t, goldenScheduleSpec), RequestID: "golden-schedule"}))
	await(e.SubmitCluster(ClusterRequest{Cfg: core.Default(), Spec: goldenSpec(t, goldenClusterSpec), RequestID: "golden-cluster"}))

	// Admission rejection: one job holds the worker, one the queue slot,
	// the third is refused after its accepted record was written.
	release := make(chan struct{})
	e.simFn = func(ctx context.Context, req Request) (stats.RunStats, error) {
		<-release
		return stats.RunStats{Network: "fake"}, nil
	}
	held, err := e.SubmitSimulate(Request{Net: dc, Cfg: batchConfig(2), Strategy: core.SCM, RequestID: "golden-held"})
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "held job running", func() bool { return jnl.Stats().LiveRecords == 2 })
	queued, err := e.SubmitSimulate(Request{Net: dc, Cfg: batchConfig(3), Strategy: core.SCM, RequestID: "golden-queued"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.SubmitSimulate(Request{Net: dc, Cfg: batchConfig(4), Strategy: core.SCM, RequestID: "golden-rejected"}); err != ErrBusy {
		t.Fatalf("third submission error = %v, want ErrBusy", err)
	}
	close(release)
	<-held.Done()
	<-queued.Done()
	settled()
	if err := e.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	// A checkpointing engine over the same journal (its own ID prefix).
	ck := NewEngine(Options{Workers: 1, Journal: jnl, Clock: goldenClock, CheckpointLayers: 2, JobPrefix: "k", CompactEvery: 1 << 30})
	await(ck.SubmitSimulate(Request{Net: dc, Cfg: core.Default(), Strategy: core.SCM, RequestID: "golden-checkpointed"}))
	if err := ck.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := journal.ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "journal.golden", encodeRecords(t, recs))
}

// TestGoldenRecovery replays a crafted journal that drives every
// recovery outcome — restored, resumed, requeued (all four kinds) and
// interrupted (no checkpoint, unusable checkpoint, bad payload, missing
// payload, unknown kind) — and pins the report, the resulting job
// views, and the journal the recovered engine leaves behind. The worker
// is held until Recover returns so every append lands in a fixed order.
func TestGoldenRecovery(t *testing.T) {
	dir := t.TempDir()
	jnl1, _, err := journal.Open(dir, journal.Options{Now: goldenClock})
	if err != nil {
		t.Fatal(err)
	}
	add := func(rec journal.Record) {
		t.Helper()
		if err := jnl1.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	dc := goldenNet(t, "densechain")
	simA := Request{Net: dc, Cfg: batchConfig(1), Strategy: core.SCM}
	simB := Request{Net: dc, Cfg: batchConfig(2), Strategy: core.SCM}
	simC := Request{Net: dc, Cfg: batchConfig(3), Strategy: core.Baseline, Observe: true}

	// j000001: finished before the crash — restored.
	add(journal.Record{Job: "j000001", Op: journal.OpAccepted, Kind: "simulate", RequestID: "r1", Payload: acceptedPayload(t, simulateKind, simA)})
	add(journal.Record{Job: "j000001", Op: journal.OpRunning, Kind: "simulate", RequestID: "r1"})
	add(journal.Record{Job: "j000001", Op: journal.OpFailed, Kind: "simulate", RequestID: "r1", Error: "boom", Reason: "timeout"})
	// j000002: running schedule, no checkpoint — interrupted.
	sch := ScheduleRequest{Cfg: core.Default(), Spec: goldenSpec(t, goldenScheduleSpec)}
	add(journal.Record{Job: "j000002", Op: journal.OpAccepted, Kind: "schedule", Payload: acceptedPayload(t, scheduleKind, sch)})
	add(journal.Record{Job: "j000002", Op: journal.OpRunning, Kind: "schedule"})
	// j000003: accepted simulate whose payload does not decode — interrupted.
	add(journal.Record{Job: "j000003", Op: journal.OpAccepted, Kind: "simulate", Payload: []byte(`{"graph":"not a graph"}`)})
	// j000004: accepted simulate — requeued.
	add(journal.Record{Job: "j000004", Op: journal.OpAccepted, Kind: "simulate", RequestID: "r4", Payload: acceptedPayload(t, simulateKind, simB)})
	// j000005: running simulate with a mid-network checkpoint — resumed.
	r, err := core.NewRun(simA.Net, simA.Cfg, simA.Strategy, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for r.NextLayer() < 3 {
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
	add(journal.Record{Job: "j000005", Op: journal.OpAccepted, Kind: "simulate", RequestID: "r5", Payload: acceptedPayload(t, simulateKind, simA)})
	add(journal.Record{Job: "j000005", Op: journal.OpRunning, Kind: "simulate", RequestID: "r5"})
	add(journal.Record{Job: "j000005", Op: journal.OpCheckpoint, Kind: "simulate", RequestID: "r5", Layer: snap.Next, Payload: snapBytes})
	// j000006..j000008: accepted sweep, schedule, cluster — requeued.
	add(journal.Record{Job: "j000006", Op: journal.OpAccepted, Kind: "sweep", RequestID: "r6",
		Payload: acceptedPayload(t, sweepKind, SweepRequest{Net: dc, Base: core.Default(), Space: goldenSpace, Parallel: 1, Pareto: true})})
	add(journal.Record{Job: "j000007", Op: journal.OpAccepted, Kind: "schedule", RequestID: "r7", Payload: acceptedPayload(t, scheduleKind, sch)})
	add(journal.Record{Job: "j000008", Op: journal.OpAccepted, Kind: "cluster", RequestID: "r8",
		Payload: acceptedPayload(t, clusterKind, ClusterRequest{Cfg: core.Default(), Spec: goldenSpec(t, goldenClusterSpec)})})
	// j000009: running simulate whose checkpoint does not fit — interrupted.
	add(journal.Record{Job: "j000009", Op: journal.OpAccepted, Kind: "simulate", Payload: acceptedPayload(t, simulateKind, simC)})
	add(journal.Record{Job: "j000009", Op: journal.OpRunning, Kind: "simulate"})
	add(journal.Record{Job: "j000009", Op: journal.OpCheckpoint, Kind: "simulate", Layer: 2, Payload: []byte(`{}`)})
	// j000010: accepted sweep with no payload — interrupted.
	add(journal.Record{Job: "j000010", Op: journal.OpAccepted, Kind: "sweep"})
	// j000011: accepted job of an unknown kind — interrupted.
	add(journal.Record{Job: "j000011", Op: journal.OpAccepted, Kind: "teleport", Payload: []byte(`{}`)})
	// j000012: accepted cluster whose scenario is single-chip — interrupted.
	add(journal.Record{Job: "j000012", Op: journal.OpAccepted, Kind: "cluster",
		Payload: acceptedPayload(t, scheduleKind, ScheduleRequest{Cfg: core.Default(), Spec: goldenSpec(t, goldenScheduleSpec)})})
	const jobs = 12
	if err := jnl1.Close(); err != nil {
		t.Fatal(err)
	}

	jnl2, recs, err := journal.Open(dir, journal.Options{Now: goldenClock})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(Options{Workers: 1, Journal: jnl2, Clock: goldenClock, CheckpointLayers: 4, CompactEvery: 1 << 30})
	hold := make(chan struct{})
	if !e.pool.TrySubmit(func() { <-hold }) {
		t.Fatal("could not hold the worker")
	}
	report, err := e.Recover(recs)
	if err != nil {
		t.Fatal(err)
	}
	close(hold)

	var out bytes.Buffer
	b, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&out, "report %s\n", b)
	for i := 1; i <= jobs; i++ {
		id := fmt.Sprintf("j%06d", i)
		j, ok := e.Job(id)
		if !ok {
			t.Fatalf("job %s lost", id)
		}
		<-j.Done()
		b, err := json.Marshal(j.View())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "view %s\n", b)
	}
	waitUntil(t, "every job terminal in the journal", func() bool { return jnl2.Stats().LiveRecords == 0 })
	if err := e.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := jnl2.Close(); err != nil {
		t.Fatal(err)
	}
	final, err := journal.ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	out.Write(encodeRecords(t, final))
	checkGolden(t, "recovery.golden", out.Bytes())
}

// TestGoldenHTTP pins status and body of the 202 reply and the
// finished job view of every async kind, the sync and traced simulate
// replies, and every row of the bad-request tables.
func TestGoldenHTTP(t *testing.T) {
	e := NewEngine(Options{Workers: 1, Clock: goldenClock})
	defer e.Drain(context.Background())
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	var out bytes.Buffer
	n := 0
	do := func(method, path, body string) []byte {
		t.Helper()
		n++
		req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(RequestIDHeader, fmt.Sprintf("golden-%02d", n))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "=== %s %s %s\n%d\n%s", method, path, body, resp.StatusCode, raw)
		return raw
	}
	// post submits body and, for a 202, waits for the job and pins its view.
	post := func(path, body string) {
		t.Helper()
		raw := do(http.MethodPost, path, body)
		var reply jobReply
		if json.Unmarshal(raw, &reply) != nil || reply.Job == "" {
			return
		}
		j, ok := e.Job(reply.Job)
		if !ok {
			t.Fatalf("job %s not registered", reply.Job)
		}
		<-j.Done()
		do(http.MethodGet, "/v1/jobs/"+reply.Job, "")
	}

	post("/v1/simulate", `{"network":"densechain"}`)
	post("/v1/simulate", `{"network":"densechain","strategy":"baseline","trace":true}`)
	post("/v1/simulate", `{"network":"densechain","async":true,"config":{"Batch":2}}`)
	post("/v1/sweep", `{"network":"densechain","pareto":true,"parallel":1,"space":{"Banks":[34],"BankKiB":[16],"PE":[[64,56]],"FmapGBps":[1.0,2.0]}}`)
	post("/v1/schedule", `{"spec":"`+goldenScheduleSpec+`"}`)
	post("/v1/cluster", `{"spec":"`+goldenClusterSpec+`"}`)
	// Rows added to a table after the golden was captured post after
	// every captured row, so the captured entries — and the request IDs
	// their job views carry — stay where they were.
	tables := []struct {
		path     string
		rows     []badRequest
		captured int
	}{
		{"/v1/simulate", simulateBadRequests, 6},
		{"/v1/schedule", scheduleBadRequests, 7},
		{"/v1/cluster", clusterBadRequests, 5},
	}
	for _, added := range []bool{false, true} {
		for _, table := range tables {
			rows := table.rows[:table.captured]
			if added {
				rows = table.rows[table.captured:]
			}
			for _, tc := range rows {
				post(table.path, tc.body)
			}
		}
	}
	checkGolden(t, "http.golden", out.Bytes())
}
