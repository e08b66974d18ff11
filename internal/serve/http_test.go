package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"shortcutmining/internal/stats"
)

func postJSON(t *testing.T, srv *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

func getJSON(t *testing.T, srv *httptest.Server, path string, v any) int {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
	}
	return resp.StatusCode
}

// TestHTTPSimulateEndToEnd drives the full stack: zoo network by name,
// real simulation, then a warm cache hit on the identical request.
func TestHTTPSimulateEndToEnd(t *testing.T) {
	e := NewEngine(Options{Workers: 2})
	defer e.Drain(context.Background())
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	body := `{"network":"resnet18","strategy":"scm"}`
	resp, raw := postJSON(t, srv, "/v1/simulate", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, raw)
	}
	var first simulateReply
	if err := json.Unmarshal(raw, &first); err != nil {
		t.Fatal(err)
	}
	if first.Cached || first.Stats == nil || first.Stats.TotalCycles <= 0 {
		t.Fatalf("first reply = %+v", first)
	}

	resp, raw = postJSON(t, srv, "/v1/simulate", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm status = %d", resp.StatusCode)
	}
	var second simulateReply
	if err := json.Unmarshal(raw, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("second request not served from cache")
	}
	if second.Stats.TotalCycles != first.Stats.TotalCycles {
		t.Errorf("cached cycles %d != original %d", second.Stats.TotalCycles, first.Stats.TotalCycles)
	}
	if e.mCacheMisses.Value() != 1 {
		t.Errorf("misses = %d, want 1", e.mCacheMisses.Value())
	}
}

// badRequest is one row of a bad-request table; the tables are shared
// with the HTTP golden, which pins every reply body.
type badRequest struct{ name, body string }

var simulateBadRequests = []badRequest{
	{"no network", `{}`},
	{"both network and graph", `{"network":"resnet18","graph":{}}`},
	{"unknown zoo name", `{"network":"alexnet-9000"}`},
	{"bad strategy", `{"network":"resnet18","strategy":"turbo"}`},
	{"unknown field", `{"network":"resnet18","bogus":1}`},
	{"malformed json", `{`},
	{"trailing data", `{"network":"squeezenet"} trailing-garbage`},
	{"trailing document", `{"network":"squeezenet"} {}`},
	{"overflowing timeout", `{"network":"squeezenet","timeout_ms":9223372036854775807}`},
	{"negative timeout", `{"network":"squeezenet","timeout_ms":-1}`},
}

func TestHTTPSimulateBadRequests(t *testing.T) {
	e := NewEngine(Options{Workers: 1})
	defer e.Drain(context.Background())
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	for _, tc := range simulateBadRequests {
		resp, raw := postJSON(t, srv, "/v1/simulate", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, body %s", tc.name, resp.StatusCode, raw)
		}
	}
}

// TestHTTPBodyTrailingWhitespace: whitespace after the document is
// not trailing data.
func TestHTTPBodyTrailingWhitespace(t *testing.T) {
	e := NewEngine(Options{Workers: 1})
	defer e.Drain(context.Background())
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	resp, raw := postJSON(t, srv, "/v1/simulate", "{\"network\":\"densechain\",\"timeout_ms\":60000} \n\t\r\n")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, raw)
	}
}

// TestHTTPSweepAsync submits a two-point sweep and polls the job
// endpoint until it completes.
func TestHTTPSweepAsync(t *testing.T) {
	e := NewEngine(Options{Workers: 2})
	defer e.Drain(context.Background())
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	body := `{"network":"resnet18","pareto":false,
	  "space":{"Banks":[34],"BankKiB":[16],"PE":[[64,56]],"FmapGBps":[1.0,2.0]}}`
	resp, raw := postJSON(t, srv, "/v1/sweep", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, body %s", resp.StatusCode, raw)
	}
	var accepted jobReply
	if err := json.Unmarshal(raw, &accepted); err != nil {
		t.Fatal(err)
	}
	if accepted.Job == "" {
		t.Fatal("no job id in 202 reply")
	}

	var view View
	deadline := time.Now().Add(30 * time.Second)
	for {
		if code := getJSON(t, srv, "/v1/jobs/"+accepted.Job, &view); code != http.StatusOK {
			t.Fatalf("job poll status = %d", code)
		}
		if view.State == JobDone || view.State == JobFailed || view.State == JobCanceled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep stuck in state %q", view.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if view.State != JobDone {
		t.Fatalf("sweep ended %q: %s", view.State, view.Error)
	}
	if len(view.Outcomes) != 2 {
		t.Fatalf("outcomes = %d, want 2 (one per grid point)", len(view.Outcomes))
	}
	for _, o := range view.Outcomes {
		if !o.Fits || o.Throughput <= 0 {
			t.Errorf("outcome %+v not simulated", o.Point)
		}
	}
}

func TestHTTPJobNotFound(t *testing.T) {
	e := NewEngine(Options{Workers: 1})
	defer e.Drain(context.Background())
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	if code := getJSON(t, srv, "/v1/jobs/j999999", nil); code != http.StatusNotFound {
		t.Errorf("status = %d, want 404", code)
	}
}

// TestHTTPAdmissionControl fills the one-worker, one-deep engine with
// blocked work and expects 429 for the next submission.
func TestHTTPAdmissionControl(t *testing.T) {
	release := make(chan struct{})
	e := NewEngine(Options{Workers: 1, QueueDepth: 1})
	defer func() {
		close(release)
		e.Drain(context.Background())
	}()
	e.simFn = func(ctx context.Context, req Request) (stats.RunStats, error) {
		select {
		case <-release:
			return stats.RunStats{}, nil
		case <-ctx.Done():
			return stats.RunStats{}, ctx.Err()
		}
	}
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	// Two async submissions occupy the worker and the queue slot. The
	// second waits for the worker to dequeue the first, so its queue
	// slot is deterministically free.
	for i := 1; i <= 2; i++ {
		body := fmt.Sprintf(`{"network":"resnet18","async":true,"config":{"Batch":%d}}`, i)
		resp, raw := postJSON(t, srv, "/v1/simulate", body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status = %d, body %s", i, resp.StatusCode, raw)
		}
		if i == 1 {
			waitUntil(t, "worker busy", func() bool { return e.pool.Busy() == 1 })
		}
	}
	waitUntil(t, "queue full", func() bool { return e.pool.QueueLen() == 1 })

	resp, raw := postJSON(t, srv, "/v1/simulate", `{"network":"resnet18","async":true,"config":{"Batch":3}}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429; body %s", resp.StatusCode, raw)
	}
}

// TestHTTPGracefulDrain: health flips to 503/draining and submissions
// are refused with 503 once Drain begins.
func TestHTTPGracefulDrain(t *testing.T) {
	e := NewEngine(Options{Workers: 1})
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	var health healthReply
	if code := getJSON(t, srv, "/healthz", &health); code != http.StatusOK || health.Status != "ok" {
		t.Fatalf("healthz = %d %+v", code, health)
	}

	if err := e.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	if code := getJSON(t, srv, "/healthz", &health); code != http.StatusServiceUnavailable || health.Status != "draining" {
		t.Errorf("draining healthz = %d %+v", code, health)
	}
	resp, _ := postJSON(t, srv, "/v1/simulate", `{"network":"resnet18"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain simulate = %d, want 503", resp.StatusCode)
	}
	resp, _ = postJSON(t, srv, "/v1/sweep", `{"network":"resnet18"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain sweep = %d, want 503", resp.StatusCode)
	}
}

// TestHTTPMetrics: the Prometheus endpoint renders the server series.
func TestHTTPMetrics(t *testing.T) {
	e := NewEngine(Options{Workers: 1})
	defer e.Drain(context.Background())
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	if _, raw := postJSON(t, srv, "/v1/simulate", `{"network":"squeezenet-bypass"}`); len(raw) == 0 {
		t.Fatal("empty simulate reply")
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	rawText, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(rawText)
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	for _, want := range []string{
		MetricCacheHits, MetricCacheMisses, MetricJobs,
		MetricQueueDepth, MetricBusyWorkers, MetricJobSeconds,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %s", want)
		}
	}
	if !strings.Contains(text, MetricCacheMisses+" 1") {
		t.Errorf("cache miss count not rendered; got:\n%s", text)
	}
}
