package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"shortcutmining/internal/core"
	"shortcutmining/internal/journal"
	"shortcutmining/internal/nn"
	"shortcutmining/internal/stats"
)

// resetZooHashes empties the per-name key memo, so the next request
// naming a zoo network fills it again.
func resetZooHashes() {
	zooHashes.Range(func(k, _ any) bool {
		zooHashes.Delete(k)
		return true
	})
}

// checkZooHashes asserts the memo's bound: only names nn.Build accepts,
// so at most one entry per zoo network.
func checkZooHashes(t *testing.T) {
	t.Helper()
	zoo := nn.ZooNames()
	n := 0
	zooHashes.Range(func(k, _ any) bool {
		n++
		if !slices.Contains(zoo, k.(string)) {
			t.Errorf("key memo holds %q, which is not a zoo network", k)
		}
		return true
	})
	if n > len(zoo) {
		t.Errorf("key memo holds %d names, want at most %d", n, len(zoo))
	}
}

// decodeBody decodes a simulate document that must be valid.
func decodeBody(t *testing.T, body string) Request {
	t.Helper()
	_, req, err := decodeSimulate(strings.NewReader(body), "")
	if err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	return req
}

// TestZooKeyMatchesEncodedNetwork: a request naming a zoo network gets
// the key of the Go-API request carrying the built network, whether its
// decode fills the memo or finds it warm, for every zoo network,
// strategy, observe flag and a default and an override config. A warm
// decode builds nothing.
func TestZooKeyMatchesEncodedNetwork(t *testing.T) {
	override := core.Default()
	override.Batch = 2
	configs := []struct {
		json string
		cfg  core.Config
	}{{"", core.Default()}, {`,"config":{"Batch":2}`, override}}
	for _, name := range nn.ZooNames() {
		net := nn.MustBuild(name)
		for _, c := range configs {
			for _, strategy := range core.Strategies() {
				for _, observe := range []bool{false, true} {
					want := Request{Net: net, Cfg: c.cfg, Strategy: strategy, Observe: observe}.mustKey(t)
					body := fmt.Sprintf(`{"network":%q,"strategy":%q,"observe":%t%s}`, name, strategy, observe, c.json)
					resetZooHashes()
					cold := decodeBody(t, body)
					if cold.Net == nil {
						t.Fatalf("%s: cold decode built no network", body)
					}
					if got := cold.mustKey(t); got != want {
						t.Errorf("%s: first-fill key %s, want %s", body, got, want)
					}
					warm := decodeBody(t, body)
					if warm.Net != nil {
						t.Errorf("%s: warm decode built the network", body)
					}
					if got := warm.mustKey(t); got != want {
						t.Errorf("%s: warm key %s, want %s", body, got, want)
					}
				}
			}
		}
	}
	checkZooHashes(t)

	t.Run("concurrent-first-use", func(t *testing.T) {
		resetZooHashes()
		const body = `{"network":"resnet34","strategy":"scm"}`
		want := Request{Net: nn.MustBuild("resnet34"), Cfg: core.Default(), Strategy: core.SCM}.mustKey(t)
		start := make(chan struct{})
		keys := make([]Key, 8)
		errs := make([]error, len(keys))
		var wg sync.WaitGroup
		for i := range keys {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				_, req, err := decodeSimulate(strings.NewReader(body), "")
				if err == nil {
					keys[i], err = RequestKey(req)
				}
				errs[i] = err
			}()
		}
		close(start)
		wg.Wait()
		for i, k := range keys {
			if errs[i] != nil || k != want {
				t.Errorf("goroutine %d: key %s err %v, want %s", i, k, errs[i], want)
			}
		}
		if got := decodeBody(t, body); got.Net != nil || got.mustKey(t) != want {
			t.Error("memo filled concurrently does not serve the warm key")
		}
		checkZooHashes(t)
	})
}

// TestWarmZooKeepsValidation: every invalid simulate document gets the
// same status and error text whether the memo is cold or warm for the
// network it names, and an unknown name never enters the memo.
func TestWarmZooKeepsValidation(t *testing.T) {
	e := NewEngine(Options{Workers: 1})
	defer e.Drain(context.Background())
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	for _, tc := range []struct{ name, body string }{
		{"network-and-graph", `{"network":"resnet18","graph":{}}`},
		{"unknown-network", `{"network":"resnet19"}`},
		{"bad-strategy", `{"network":"resnet18","strategy":"mine-harder"}`},
		{"bad-config", `{"network":"resnet18","config":{"Batch":"two"}}`},
		{"invalid-config", `{"network":"resnet18","config":{"Batch":-1}}`},
		{"timeout-range", `{"network":"resnet18","timeout_ms":-1}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resetZooHashes()
			coldResp, cold := postJSON(t, srv, "/v1/simulate", tc.body)
			decodeBody(t, `{"network":"resnet18"}`).mustKey(t) // warm the memo
			if !warmZoo("resnet18") {
				t.Fatal("memo did not warm")
			}
			warmResp, warm := postJSON(t, srv, "/v1/simulate", tc.body)
			if coldResp.StatusCode != http.StatusBadRequest || warmResp.StatusCode != coldResp.StatusCode || !bytes.Equal(warm, cold) {
				t.Errorf("cold %d %s; warm %d %s; want the same 400", coldResp.StatusCode, cold, warmResp.StatusCode, warm)
			}
			if warmZoo("resnet19") {
				t.Error("an unknown network entered the memo")
			}
			checkZooHashes(t)
		})
	}
}

// TestWarmZooTraceAndAsync: a traced and an async request naming a warm
// network return the RunStats of the same requests with the memo cold,
// and the async one journals the same accepted payload.
func TestWarmZooTraceAndAsync(t *testing.T) {
	const traced = `{"network":"squeezenet-bypass","trace":true}`
	const async = `{"network":"squeezenet-bypass","strategy":"fm-reuse","async":true}`
	// run posts body to a fresh journaled engine and returns the result
	// and the accepted payload (nil for a synchronous request).
	run := func(t *testing.T, body string) (stats.RunStats, []byte) {
		jnl, dir := openTestJournal(t, journal.Options{})
		e := NewEngine(Options{Workers: 1, Journal: jnl})
		srv := httptest.NewServer(NewHandler(e))
		defer srv.Close()
		resp, raw := postJSON(t, srv, "/v1/simulate", body)
		var res stats.RunStats
		switch resp.StatusCode {
		case http.StatusOK:
			var reply simulateReply
			if err := json.Unmarshal(raw, &reply); err != nil || reply.Stats == nil || len(reply.Trace) == 0 {
				t.Fatalf("traced reply %s: %v", raw, err)
			}
			res = *reply.Stats
		case http.StatusAccepted:
			var reply jobReply
			if err := json.Unmarshal(raw, &reply); err != nil {
				t.Fatal(err)
			}
			j, _ := e.Job(reply.Job)
			<-j.Done()
			v := j.View()
			if v.State != JobDone || v.Stats == nil {
				t.Fatalf("async job = %+v", v)
			}
			res = *v.Stats
		default:
			t.Fatalf("status %d: %s", resp.StatusCode, raw)
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
		for _, rec := range recs {
			if rec.Op == journal.OpAccepted {
				return res, rec.Payload
			}
		}
		return res, nil
	}
	for _, body := range []string{traced, async} {
		resetZooHashes()
		coldStats, coldPayload := run(t, body)
		decodeBody(t, `{"network":"squeezenet-bypass"}`).mustKey(t) // a traced run computes no key
		warmStats, warmPayload := run(t, body)
		if !reflect.DeepEqual(warmStats, coldStats) {
			t.Errorf("%s: warm stats %+v, cold %+v", body, warmStats, coldStats)
		}
		if !bytes.Equal(warmPayload, coldPayload) {
			t.Errorf("%s: warm accepted payload differs from cold:\n%s\n%s", body, warmPayload, coldPayload)
		}
	}
}
