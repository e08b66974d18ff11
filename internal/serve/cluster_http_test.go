package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
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
	{"single-chip clauses", `{"spec":"seed=1;chips=2;policy=prio;quantum=3;maxresident=1;stream=squeezenet:n=2,prio=4,banks=100000"}`},
	{"stream banks", `{"scenario":{"seed":1,"chips":2,"streams":[{"network":"squeezenet","requests":1,"min_banks":10}]}}`},
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
