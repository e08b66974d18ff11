package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"shortcutmining/internal/analysis"
)

var seededFindings = []analysis.Finding{
	{File: "internal/core/sim.go", Line: 42, Col: 7, Check: analysis.CheckDeterminism, Message: "time.Now reads the wall clock"},
	{File: "internal/serve/engine.go", Line: 10, Col: 2, Check: analysis.CheckLocking, Message: "Engine.jobs is guarded by mu"},
	{File: "internal/serve/engine.go", Line: 99, Col: 2, Check: analysis.CheckLocking, Message: "Engine.jobs is guarded by mu"},
}

// TestWriteSARIF pins the SARIF shape GitHub code scanning ingests:
// version, one run, per-check rules, and physical locations.
func TestWriteSARIF(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.sarif")
	if err := writeSARIF(path, seededFindings); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var log sarifLog
	if err := json.Unmarshal(data, &log); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("version %q runs %d, want 2.1.0 and one run", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "scm-vet" {
		t.Errorf("driver = %q", run.Tool.Driver.Name)
	}
	if len(run.Results) != 3 {
		t.Fatalf("results = %d, want 3", len(run.Results))
	}
	if len(run.Tool.Driver.Rules) != 2 {
		t.Fatalf("rules = %d, want 2 (determinism and locking, deduplicated)", len(run.Tool.Driver.Rules))
	}
	r := run.Results[0]
	if r.RuleID != "scmvet/determinism" || r.Level != "error" {
		t.Errorf("result[0] rule %q level %q", r.RuleID, r.Level)
	}
	loc := r.Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "internal/core/sim.go" || loc.Region.StartLine != 42 || loc.Region.StartColumn != 7 {
		t.Errorf("location = %+v", loc)
	}
}

// TestWriteSARIFEmpty: a clean run still writes a valid log with empty
// results and rules arrays (not null), which uploaders require.
func TestWriteSARIFEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.sarif")
	if err := writeSARIF(path, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	if strings.Contains(s, `"results": null`) || strings.Contains(s, `"rules": null`) {
		t.Errorf("empty log serialized null arrays:\n%s", s)
	}
}

// TestSelfRunSARIF threads the flag end to end over the real module:
// exit 0, empty results, file exists.
func TestSelfRunSARIF(t *testing.T) {
	path := filepath.Join(t.TempDir(), "self.sarif")
	var stdout, stderr strings.Builder
	code := run([]string{"-sarif", path, modulePattern(t)}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstderr:\n%s", code, stderr.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var log sarifLog
	if err := json.Unmarshal(data, &log); err != nil {
		t.Fatal(err)
	}
	if len(log.Runs) != 1 || len(log.Runs[0].Results) != 0 {
		t.Errorf("self-run SARIF should be one empty run, got %+v", log.Runs)
	}
}
