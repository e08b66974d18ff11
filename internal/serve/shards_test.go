package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"shortcutmining/internal/core"
	"shortcutmining/internal/journal"
	"shortcutmining/internal/sched"
)

const clusterSpecBody = `{"spec":"seed=9;chips=3;topo=ring;place=affinity;stream=squeezenet:n=2,gap=300000"}`

// TestHTTPClusterAsync drives POST /v1/cluster end to end on a single
// engine: submit a chips=3 scenario, poll the job, and check the
// sharded Result lands under the cluster kind and reconciles.
func TestHTTPClusterAsync(t *testing.T) {
	e := NewEngine(Options{Workers: 2})
	defer e.Drain(context.Background())
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	resp, raw := postJSON(t, srv, "/v1/cluster", clusterSpecBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, body %s", resp.StatusCode, raw)
	}
	var accepted jobReply
	if err := json.Unmarshal(raw, &accepted); err != nil {
		t.Fatal(err)
	}
	view := pollJob(t, srv, accepted.Job)
	if view.State != JobDone {
		t.Fatalf("cluster job ended %q: %s", view.State, view.Error)
	}
	if view.Kind != "cluster" {
		t.Errorf("job kind = %q, want cluster", view.Kind)
	}
	if view.Cluster == nil {
		t.Fatal("no cluster result in job view")
	}
	if view.Stats != nil || view.Schedule != nil || len(view.Outcomes) != 0 {
		t.Error("cluster job carries other kinds' payloads")
	}
	if err := view.Cluster.Reconcile(); err != nil {
		t.Errorf("served cluster result does not reconcile: %v", err)
	}
	if view.Cluster.Chips != 3 || view.Cluster.Topology != "ring" {
		t.Errorf("cluster shape = %d chips %q topology", view.Cluster.Chips, view.Cluster.Topology)
	}
}

var clusterBadRequests = []badRequest{
	{"empty", `{}`},
	{"single chip", `{"spec":"stream=squeezenet:n=1"}`},
	{"bad topology", `{"spec":"chips=2;topo=torus;stream=squeezenet:n=1"}`},
	{"bad grammar", `{"spec":"chips=two;stream=squeezenet:n=1"}`},
	{"both", `{"spec":"chips=2;stream=squeezenet:n=1","scenario":{"chips":2,"streams":[{"network":"squeezenet","requests":1}]}}`},
	{"trailing data", `{"spec":"chips=2;stream=squeezenet:n=1"} trailing-garbage`},
}

// TestHTTPClusterBadRequests pins the 400 paths of /v1/cluster.
func TestHTTPClusterBadRequests(t *testing.T) {
	e := NewEngine(Options{Workers: 1})
	defer e.Drain(context.Background())
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	for _, tc := range clusterBadRequests {
		name, body := tc.name, tc.body
		resp, raw := postJSON(t, srv, "/v1/cluster", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body %s)", name, resp.StatusCode, raw)
		}
	}
}

// TestClusterDurableRequeue: an accepted-but-unstarted cluster job in
// the journal is re-enqueued by Recover under its original ID and runs
// to a reconciling result.
func TestClusterDurableRequeue(t *testing.T) {
	dir := t.TempDir()
	jnl1, recovered, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recovered))
	}
	spec, err := sched.ParseSpec("seed=3;chips=2;place=hash;stream=squeezenet:n=1")
	if err != nil {
		t.Fatal(err)
	}
	payload, err := encodePayload(clusterKind, ClusterRequest{Cfg: core.Default(), Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if err := jnl1.Append(journal.Record{Job: "j000001", Op: journal.OpAccepted,
		Kind: "cluster", RequestID: "req-cl-1", Payload: payload}); err != nil {
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
	if report.Requeued != 1 {
		t.Fatalf("recovery report = %+v, want 1 requeued", report)
	}
	j, ok := e.Job("j000001")
	if !ok {
		t.Fatal("requeued cluster job not registered")
	}
	<-j.Done()
	v := j.View()
	if v.State != JobDone {
		t.Fatalf("requeued cluster job ended %s: %s", v.State, v.Error)
	}
	if v.RequestID != "req-cl-1" {
		t.Errorf("correlation ID lost across recovery: %q", v.RequestID)
	}
	if v.Cluster == nil {
		t.Fatal("requeued cluster job has no result")
	}
	if err := v.Cluster.Reconcile(); err != nil {
		t.Errorf("recovered cluster result does not reconcile: %v", err)
	}
}

func TestJobSeqPrefixes(t *testing.T) {
	for _, tc := range []struct {
		id string
		n  int
		ok bool
	}{
		{"j000042", 42, true},
		{"s2-j000007", 7, true},
		{"s11-j123456", 123456, true},
		{"j", 0, false},
		{"000123", 0, false},
		{"nodigits", 0, false},
		{"", 0, false},
	} {
		n, ok := jobSeq(tc.id)
		if n != tc.n || ok != tc.ok {
			t.Errorf("jobSeq(%q) = %d, %v; want %d, %v", tc.id, n, ok, tc.n, tc.ok)
		}
	}
}

// TestShardedSimulateForwarding: on a 3-shard front, identical
// requests entering through different shards are all forwarded to one
// content-hash owner, so the second and third are cache hits there and
// the other shards' caches stay empty.
func TestShardedSimulateForwarding(t *testing.T) {
	sh, err := NewShards(3, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Drain(context.Background())
	srv := httptest.NewServer(NewShardedHandler(sh))
	defer srv.Close()

	body := `{"network":"densechain"}`
	for i := 0; i < 3; i++ {
		resp, raw := postJSON(t, srv, "/v1/simulate", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status = %d, body %s", i, resp.StatusCode, raw)
		}
		var reply simulateReply
		if err := json.Unmarshal(raw, &reply); err != nil {
			t.Fatal(err)
		}
		if (i > 0) != reply.Cached {
			t.Errorf("request %d cached = %v", i, reply.Cached)
		}
	}

	// Round-robin entries 0,1,2 with one fixed owner: exactly two
	// requests entered through a non-owner shard.
	if got := sh.mForwards.Value(); got != 2 {
		t.Errorf("forwards = %d, want 2", got)
	}
	if got := sh.mForwardHits.Value(); got < 1 {
		t.Errorf("forward hits = %d, want >= 1", got)
	}
	// The result lives on exactly one shard.
	var holders int
	for i := 0; i < sh.NumShards(); i++ {
		if sh.Shard(i).CacheStats().Entries > 0 {
			holders++
		}
	}
	if holders != 1 {
		t.Errorf("result cached on %d shards, want exactly 1", holders)
	}

	// The routing-layer series are scrapeable.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		MetricShardRequests, MetricShardForwards, MetricShardForwardHits,
		MetricShardQueueDepth, MetricShardBusyWorkers,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("sharded metrics output missing %s", want)
		}
	}
}

// TestShardedJobRouting: submissions spread round-robin across shards,
// IDs carry the shard prefix, and GET /v1/jobs/{id} finds its way to
// the owning shard.
func TestShardedJobRouting(t *testing.T) {
	sh, err := NewShards(3, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Drain(context.Background())
	srv := httptest.NewServer(NewShardedHandler(sh))
	defer srv.Close()

	specBody := `{"spec":"seed=2;stream=densechain:n=1"}`
	var ids []string
	for i := 0; i < 3; i++ {
		resp, raw := postJSON(t, srv, "/v1/schedule", specBody)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status = %d, body %s", i, resp.StatusCode, raw)
		}
		var accepted jobReply
		if err := json.Unmarshal(raw, &accepted); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, accepted.Job)
	}
	prefixes := map[string]bool{}
	for _, id := range ids {
		i := strings.IndexByte(id, '-')
		if i < 0 {
			t.Fatalf("job ID %q carries no shard prefix", id)
		}
		prefixes[id[:i]] = true
	}
	if len(prefixes) != 3 {
		t.Errorf("3 submissions landed on %d shards (%v), want 3", len(prefixes), ids)
	}
	for _, id := range ids {
		if view := pollJob(t, srv, id); view.State != JobDone {
			t.Errorf("job %s ended %q: %s", id, view.State, view.Error)
		}
	}
	if code := getJSON(t, srv, "/v1/jobs/s9-j000001", nil); code != http.StatusNotFound {
		t.Errorf("unknown job lookup = %d, want 404", code)
	}
}

// TestShardedClusterSmoke is the CI smoke check: a 3-shard in-process
// cluster serves a chips=3 schedule through POST /v1/cluster while
// identical simulate traffic demonstrates cross-shard cache
// forwarding hits, and the aggregated health endpoint reports every
// shard's capacity.
func TestShardedClusterSmoke(t *testing.T) {
	sh, err := NewShards(3, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Drain(context.Background())
	srv := httptest.NewServer(NewShardedHandler(sh))
	defer srv.Close()

	// chips=3 sharded scheduling job through the front.
	resp, raw := postJSON(t, srv, "/v1/cluster", clusterSpecBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cluster submit: status = %d, body %s", resp.StatusCode, raw)
	}
	var accepted jobReply
	if err := json.Unmarshal(raw, &accepted); err != nil {
		t.Fatal(err)
	}

	// Identical simulate requests entering through rotating shards:
	// all are forwarded to one owner, later ones hit its cache.
	for i := 0; i < 3; i++ {
		if resp, raw := postJSON(t, srv, "/v1/simulate", `{"network":"squeezenet-bypass"}`); resp.StatusCode != http.StatusOK {
			t.Fatalf("simulate %d: status = %d, body %s", i, resp.StatusCode, raw)
		}
	}
	if got := sh.mForwardHits.Value(); got < 1 {
		t.Errorf("cross-shard cache forwarding hits = %d, want >= 1", got)
	}

	view := pollJob(t, srv, accepted.Job)
	if view.State != JobDone || view.Cluster == nil {
		t.Fatalf("cluster job ended %q (result %v): %s", view.State, view.Cluster != nil, view.Error)
	}
	if err := view.Cluster.Reconcile(); err != nil {
		t.Errorf("smoke cluster result does not reconcile: %v", err)
	}
	if view.Cluster.Chips != 3 {
		t.Errorf("cluster ran on %d chips, want 3", view.Cluster.Chips)
	}

	var health healthReply
	if code := getJSON(t, srv, "/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	if health.Status != "ok" || health.Workers != 6 {
		t.Errorf("aggregated health = %q with %d workers, want ok with 6", health.Status, health.Workers)
	}
}
