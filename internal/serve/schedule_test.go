package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"shortcutmining/internal/core"
	"shortcutmining/internal/journal"
	"shortcutmining/internal/sched"
)

// pollJob spins on GET /v1/jobs/{id} until the job is terminal.
func pollJob(t *testing.T, srv *httptest.Server, id string) View {
	t.Helper()
	var view View
	deadline := time.Now().Add(30 * time.Second)
	for {
		if code := getJSON(t, srv, "/v1/jobs/"+id, &view); code != http.StatusOK {
			t.Fatalf("job poll status = %d", code)
		}
		if view.State == JobDone || view.State == JobFailed || view.State == JobCanceled {
			return view
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %q", view.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestHTTPScheduleAsync drives POST /v1/schedule end to end: submit a
// contended two-stream scenario, poll the job, and check the QoS
// result lands under the schedule kind.
func TestHTTPScheduleAsync(t *testing.T) {
	e := NewEngine(Options{Workers: 2})
	defer e.Drain(context.Background())
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	body := `{"spec":"seed=4;policy=rr;quantum=3;stream=densechain:n=3,gap=200000;stream=squeezenet:n=2,gap=300000"}`
	resp, raw := postJSON(t, srv, "/v1/schedule", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, body %s", resp.StatusCode, raw)
	}
	var accepted jobReply
	if err := json.Unmarshal(raw, &accepted); err != nil {
		t.Fatal(err)
	}

	view := pollJob(t, srv, accepted.Job)
	if view.State != JobDone {
		t.Fatalf("schedule ended %q: %s", view.State, view.Error)
	}
	if view.Kind != "schedule" {
		t.Errorf("job kind = %q, want schedule", view.Kind)
	}
	if view.Schedule == nil {
		t.Fatal("no schedule result in job view")
	}
	if view.Stats != nil || len(view.Outcomes) != 0 {
		t.Error("schedule job carries simulate/sweep payloads")
	}
	if got := len(view.Schedule.Streams); got != 2 {
		t.Fatalf("streams = %d, want 2", got)
	}
	for _, sr := range view.Schedule.Streams {
		if sr.Completed != sr.Requests {
			t.Errorf("%s: %d/%d completed", sr.Name, sr.Completed, sr.Requests)
		}
		if sr.Latency.P95 == 0 {
			t.Errorf("%s: zero p95 latency", sr.Name)
		}
	}
}

// TestHTTPScheduleScenarioBody exercises the structured alternative to
// the grammar string.
func TestHTTPScheduleScenarioBody(t *testing.T) {
	e := NewEngine(Options{Workers: 1})
	defer e.Drain(context.Background())
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	body := `{"scenario":{"seed":8,"policy":0,"streams":[{"network":"densechain","strategy":2,"requests":2}]}}`
	resp, raw := postJSON(t, srv, "/v1/schedule", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, body %s", resp.StatusCode, raw)
	}
	var accepted jobReply
	if err := json.Unmarshal(raw, &accepted); err != nil {
		t.Fatal(err)
	}
	view := pollJob(t, srv, accepted.Job)
	if view.State != JobDone || view.Schedule == nil {
		t.Fatalf("scenario job ended %q (schedule %v): %s", view.State, view.Schedule != nil, view.Error)
	}
}

var scheduleBadRequests = []badRequest{
	{"empty", `{}`},
	{"both", `{"spec":"stream=densechain:","scenario":{"streams":[{"network":"densechain","requests":1}]}}`},
	{"bad grammar", `{"spec":"policy=lifo;stream=densechain:"}`},
	{"unknown net", `{"spec":"stream=notanet:n=1"}`},
	{"no streams", `{"scenario":{"seed":1}}`},
	{"unknown field", `{"specs":"stream=densechain:"}`},
	{"zero requests", `{"spec":"stream=densechain:n=0"}`},
	{"trailing data", `{"spec":"stream=densechain:n=1"} trailing-garbage`},
	{"multi chip", `{"spec":"seed=1;chips=3;stream=squeezenet:n=1,gap=1000"}`},
}

// TestHTTPScheduleBadRequests pins the 400 paths.
func TestHTTPScheduleBadRequests(t *testing.T) {
	e := NewEngine(Options{Workers: 1})
	defer e.Drain(context.Background())
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	for _, tc := range scheduleBadRequests {
		name, body := tc.name, tc.body
		resp, raw := postJSON(t, srv, "/v1/schedule", body)
		if name == "unknown net" {
			// The network name is resolved when the job runs; submission
			// still succeeds, the job fails.
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("%s: status = %d, body %s", name, resp.StatusCode, raw)
			}
			var accepted jobReply
			if err := json.Unmarshal(raw, &accepted); err != nil {
				t.Fatal(err)
			}
			if view := pollJob(t, srv, accepted.Job); view.State != JobFailed {
				t.Errorf("%s: job state = %q, want failed", name, view.State)
			}
			continue
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body %s)", name, resp.StatusCode, raw)
		}
	}
}

// TestHTTPMetricsCacheLookups checks the cache's own lookup counters
// reach the Prometheus page.
func TestHTTPMetricsCacheLookups(t *testing.T) {
	e := NewEngine(Options{Workers: 1})
	defer e.Drain(context.Background())
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	// One miss then one hit on the identical request.
	postJSON(t, srv, "/v1/simulate", `{"network":"densechain"}`)
	postJSON(t, srv, "/v1/simulate", `{"network":"densechain"}`)

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
	if !strings.Contains(text, MetricCacheLookups+`{result="hit"} 1`) {
		t.Errorf("cache lookup hit counter not rendered; got:\n%s", text)
	}
	if !strings.Contains(text, MetricCacheLookups+`{result="miss"} 1`) {
		t.Errorf("cache lookup miss counter not rendered; got:\n%s", text)
	}
}

// TestSubmitScenarioDirection: the schedule and cluster kinds each
// check the scenario's chip count at submit time, so a misrouted
// scenario is refused before anything is journaled instead of being
// accepted and failing when it runs.
func TestSubmitScenarioDirection(t *testing.T) {
	jnl, _ := openTestJournal(t, journal.Options{})
	defer jnl.Close()
	e := NewEngine(Options{Workers: 1, Journal: jnl})
	defer e.Drain(context.Background())

	multi, err := sched.ParseSpec("seed=1;chips=3;stream=squeezenet:n=1,gap=1000")
	if err != nil {
		t.Fatal(err)
	}
	single, err := sched.ParseSpec("seed=1;stream=squeezenet:n=1,gap=1000")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.SubmitSchedule(ScheduleRequest{Cfg: core.Default(), Spec: multi}); err == nil || !strings.Contains(err.Error(), "chips=3") {
		t.Errorf("SubmitSchedule(chips=3) error = %v, want a chips=3 refusal", err)
	}
	if _, err := e.SubmitCluster(ClusterRequest{Cfg: core.Default(), Spec: single}); err == nil || !strings.Contains(err.Error(), "single-chip") {
		t.Errorf("SubmitCluster(chips=0) error = %v, want a single-chip refusal", err)
	}
	if n := jnl.Stats().Appends; n != 0 {
		t.Errorf("refused submissions wrote %d journal records", n)
	}
}
