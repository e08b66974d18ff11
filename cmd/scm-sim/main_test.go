package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCatalogGolden pins the -list catalog output: the zoo's
// shortcut-structure numbers are motivation data for E1, so a silent
// change to any network definition or to Characterize shows up here.
// Regenerate with SCM_UPDATE_GOLDEN=1 go test ./cmd/scm-sim/.
func TestCatalogGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := writeCatalog(&buf); err != nil {
		t.Fatalf("writeCatalog: %v", err)
	}
	got := buf.String()

	golden := filepath.Join("testdata", "catalog.golden")
	if os.Getenv("SCM_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading %s (regenerate with SCM_UPDATE_GOLDEN=1): %v", golden, err)
	}
	if got != string(want) {
		t.Errorf("catalog output diverged from %s (regenerate with SCM_UPDATE_GOLDEN=1 if intended)\n got:\n%s\nwant:\n%s",
			golden, got, want)
	}
}

// TestDumpListsLayers sanity-checks the -list -layers mode.
func TestDumpListsLayers(t *testing.T) {
	out, code := runSim(t, "-list", "-layers", "-net", "resnet18")
	if code != 0 || !strings.Contains(out, "conv") || len(strings.Split(out, "\n")) < 10 {
		t.Errorf("dump output implausible (exit %d):\n%s", code, out)
	}
	if _, code := runSim(t, "-list", "-layers", "-net", "notanet"); code != 1 {
		t.Errorf("unknown network: exit %d, want 1", code)
	}
}

// runSim runs the command with args and returns its stdout and exit
// status.
func runSim(t *testing.T, args ...string) (string, int) {
	t.Helper()
	var stdout, stderr strings.Builder
	code := run(args, &stdout, &stderr)
	if code != 0 {
		t.Logf("scm-sim %s: exit %d: %s", strings.Join(args, " "), code, stderr.String())
	}
	return stdout.String(), code
}

// eventCases are the commands of testdata/events.golden, one section
// each, headed "=== scm-sim ARGS". The arguments hold no spaces.
var eventCases = []string{
	"-net resnet18 -strategy scm -events jsonl",
	"-net resnet18 -strategy scm -events text",
	"-net resnet18 -strategy scm -events summary",
	"-net resnet18 -strategy scm -events occupancy",
	"-net resnet18 -strategy scm -trace -",
	"-net resnet34 -strategy scm -faults seed=1;bank-fail@2:n=2 -kinds fault,relocate,retry -events text",
}

// TestEventsGolden pins the event stream in every -events form and as
// a Perfetto document on stdout, plus a faulted run filtered by -kinds.
// Regenerate with SCM_UPDATE_GOLDEN=1 go test ./cmd/scm-sim/.
func TestEventsGolden(t *testing.T) {
	var doc strings.Builder
	for _, c := range eventCases {
		out, code := runSim(t, strings.Fields(c)...)
		if code != 0 {
			t.Fatalf("scm-sim %s: exit %d", c, code)
		}
		doc.WriteString("=== scm-sim " + c + "\n" + out)
	}
	golden := filepath.Join("testdata", "events.golden")
	if os.Getenv("SCM_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(doc.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	gotSecs := strings.Split(doc.String(), "=== scm-sim ")
	wantSecs := strings.Split(string(want), "=== scm-sim ")
	if len(gotSecs) != len(wantSecs) {
		t.Fatalf("%d sections, golden has %d", len(gotSecs), len(wantSecs))
	}
	for i := range gotSecs {
		if gotSecs[i] != wantSecs[i] {
			head, _, _ := strings.Cut(wantSecs[i], "\n")
			t.Errorf("section %q diverged from %s (regenerate with SCM_UPDATE_GOLDEN=1 if intended)", head, golden)
		}
	}
}

// TestTraceFile: -trace FILE writes the same bytes as -trace - and
// leaves stdout to the run summary.
func TestTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	out, code := runSim(t, "-net", "resnet18", "-strategy", "scm", "-trace", path)
	if code != 0 || !strings.HasPrefix(out, "network:        resnet18\n") {
		t.Fatalf("exit %d, stdout:\n%s", code, out)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	stdout, _ := runSim(t, "-net", "resnet18", "-strategy", "scm", "-trace", "-")
	if !bytes.Equal(file, []byte(stdout)) {
		t.Errorf("-trace %s wrote %d bytes, -trace - printed %d", path, len(file), len(stdout))
	}
}

// TestModeErrors: flag combinations that select no single report exit
// 2 before anything runs. The -graph file does not exist, so a run
// that got as far as loading it would fail with exit 1 instead.
func TestModeErrors(t *testing.T) {
	for _, c := range []string{
		"-metrics",
		"-events jsonl",
		"-trace out.json",
		"-kinds pin",
		"-strategy scm -events bogus",
		"-strategy scm -events text -json",
		"-strategy scm -events text -metrics",
		"-strategy scm -events text -layers",
		"-strategy scm -trace - -events text",
		"-strategy scm -trace - -json",
		"-strategy scm -kinds pin",
		"-strategy scm -events text -kinds bogus",
		"-strategy scm -events text -kinds Pin",
		"-strategy scm -trace out.json -kinds pin,bogus",
	} {
		var stdout, stderr strings.Builder
		args := append(strings.Fields(c), "-graph", filepath.Join(t.TempDir(), "missing.json"))
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("scm-sim %s: exit %d, stdout %q, stderr %q; want exit 2 and no output", c, code, stdout.String(), stderr.String())
		}
	}
}
