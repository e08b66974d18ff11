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

	"shortcutmining/internal/compress"
	"shortcutmining/internal/core"
	"shortcutmining/internal/dse"
	"shortcutmining/internal/fault"
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

	// A checkpointing engine over the same journal, continuing the
	// first engine's job IDs.
	ck := NewEngine(Options{Workers: 1, Journal: jnl, Clock: goldenClock, CheckpointLayers: 2, CompactEvery: 1 << 30})
	ck.seq = e.seq
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
	// The checkpoint is a whole version 1 snapshot of simA at layer 3,
	// as the build before delta checkpoints journaled it: recovery must
	// still resume from one, and chain its own checkpoints onto it.
	snapBytes, err := os.ReadFile(filepath.Join("testdata", "checkpoint_v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	add(journal.Record{Job: "j000005", Op: journal.OpAccepted, Kind: "simulate", RequestID: "r5", Payload: acceptedPayload(t, simulateKind, simA)})
	add(journal.Record{Job: "j000005", Op: journal.OpRunning, Kind: "simulate", RequestID: "r5"})
	add(journal.Record{Job: "j000005", Op: journal.OpCheckpoint, Kind: "simulate", RequestID: "r5", Layer: 3, Payload: snapBytes})
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
	// every earlier row, so the captured entries — and the request IDs
	// their job views carry — stay where they were. cuts holds each
	// table's length at the capture and at every later append.
	tables := []struct {
		path string
		rows []badRequest
		cuts []int
	}{
		{"/v1/simulate", simulateBadRequests, []int{6, 10}},
		{"/v1/schedule", scheduleBadRequests, []int{7, 9}},
		{"/v1/cluster", clusterBadRequests, []int{5, 6}},
	}
	for phase := 0; phase <= 2; phase++ {
		for _, table := range tables {
			lo, hi := 0, len(table.rows)
			if phase > 0 {
				lo = table.cuts[phase-1]
			}
			if phase < len(table.cuts) {
				hi = table.cuts[phase]
			}
			for _, tc := range table.rows[lo:hi] {
				post(table.path, tc.body)
			}
		}
	}
	// Appended after the capture above: a repeated synchronous simulate
	// answered from the cache, and an error whose message needs HTML and
	// backslash escaping.
	post("/v1/simulate", `{"network":"densechain"}`)
	post("/v1/simulate", `{"network":"<a&b> \"q\" \\ é"}`)
	checkGolden(t, "http.golden", out.Bytes())
}

// goldenEscapedGraph is an inline network whose names need JSON
// escaping: HTML characters, quotes, backslash runs and non-ASCII.
const goldenEscapedGraph = `{"name":"esc<&>\"net\"\\ é","input":{"c":3,"h":16,"w":16},"layers":[
 {"name":"conv<1>&\\\\","op":"conv","inputs":["input"],"stage":"s\"1\"\u2028","out_channels":8,"kernel":3,"stride":1,"pad":1},
 {"name":"branch ü\\\"","op":"conv","inputs":["conv<1>&\\\\"],"out_channels":8,"kernel":1,"stride":1},
 {"name":"sum>","op":"add","inputs":["conv<1>&\\\\","branch ü\\\""]},
 {"name":"pool\t","op":"pool","pool":"max","inputs":["sum>"],"kernel":2,"stride":2}]}`

// TestGoldenKeys pins the cache key of a fixed set of requests. Keys
// are content addresses that persist only in the cache, so a change to
// them shows nowhere else: every warm entry silently goes cold.
func TestGoldenKeys(t *testing.T) {
	faulty := core.Default()
	spec, err := fault.ParseSpec("seed=42;bank-fail@4:n=3;dma-drop:p=0.02")
	if err != nil {
		t.Fatal(err)
	}
	faulty.Faults = spec
	compressed := core.Default()
	if compressed.Compression, err = compress.ParseSpec("zvc:sparsity=0.5,enc=2,dec=2"); err != nil {
		t.Fatal(err)
	}
	escaped, err := nn.DecodeJSON(strings.NewReader(goldenEscapedGraph))
	if err != nil {
		t.Fatal(err)
	}

	type row struct {
		label string
		req   Request
	}
	var rows []row
	for _, name := range []string{"densechain", "squeezenet-bypass", "resnet34", "mobilenetv2", "densenet121", "shufflenetv1"} {
		net := goldenNet(t, name)
		for _, strat := range core.Strategies() {
			for _, observe := range []bool{false, true} {
				rows = append(rows, row{fmt.Sprintf("%s/%s/observe=%t", name, strat, observe),
					Request{Net: net, Cfg: core.Default(), Strategy: strat, Observe: observe}})
			}
		}
	}
	rows = append(rows,
		row{"resnet34/scm/faults", Request{Net: goldenNet(t, "resnet34"), Cfg: faulty, Strategy: core.SCM}},
		row{"resnet34/scm/compression", Request{Net: goldenNet(t, "resnet34"), Cfg: compressed, Strategy: core.SCM}},
		row{"escaped/scm", Request{Net: escaped, Cfg: core.Default(), Strategy: core.SCM}},
		row{"escaped/baseline/observe=true", Request{Net: escaped, Cfg: batchConfig(2), Strategy: core.Baseline, Observe: true}},
	)

	var out bytes.Buffer
	for _, r := range rows {
		k, err := RequestKey(r.req)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "%s %s\n", r.label, k)
	}
	checkGolden(t, "keys.golden", out.Bytes())
}
