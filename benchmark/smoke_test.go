package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSmoke runs a 200 ms trial of every workload, and in full mode a
// traced run too, and requires correct outputs and a valid report.
func TestSmoke(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			if traced && testing.Short() {
				continue
			}
			spans := filepath.Join(t.TempDir(), "spans.json")
			rep, err := run(context.Background(), options{workload: w, seed: 5, window: 200 * time.Millisecond, traced: traced, spans: spans})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < minOps {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d errors=%v", w, traced, rep.Correct, rep.Attempted, rep.Failed, rep.Errors)
			}
			if err := rep.validate(); err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			line, err := rep.resultLine()
			if err != nil {
				t.Fatal(err)
			}
			var result map[string]json.RawMessage
			if err := json.Unmarshal(line, &result); err != nil || len(result) != 4 {
				t.Fatalf("result line %s: %v", line, err)
			}
			if traced {
				checkSpanFile(t, spans)
			}
		}
	}
}

// checkSpanFile requires a Chrome trace-event document with complete
// ("X") events carrying an op id, which is what Perfetto loads.
func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Args struct {
				Op *int64 `json:"op"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("span file: %v", err)
	}
	names := map[string]bool{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			if e.Args.Op == nil || e.Dur < 0 {
				t.Fatalf("span %+v lacks an op id or has a negative duration", e)
			}
			names[e.Name] = true
		}
	}
	for _, n := range []string{spanOp, spanReplay, spanNewRun, spanFinish, spanKey, spanAppend, spanCluster} {
		if !names[n] {
			t.Errorf("span file has no %s span", n)
		}
	}
}
