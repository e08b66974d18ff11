package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// corpusState loads the testdata corpus module once per test process —
// type-checking pulls the standard library through the source importer,
// which is worth amortizing.
var corpusState struct {
	once     sync.Once
	mod      *Module
	findings []Finding
	err      error
}

func corpusFindings(t *testing.T) (*Module, []Finding) {
	t.Helper()
	corpusState.once.Do(func() {
		mod, err := LoadModule(filepath.Join("testdata", "src"))
		if err != nil {
			corpusState.err = err
			return
		}
		corpusState.mod = mod
		corpusState.findings = Run(mod, DefaultConfig())
	})
	if corpusState.err != nil {
		t.Fatalf("loading corpus: %v", corpusState.err)
	}
	return corpusState.mod, corpusState.findings
}

// wantRx extracts the backquoted patterns of a // want comment.
var wantRx = regexp.MustCompile("`([^`]+)`")

// collectWants scans the corpus sources for // want annotations and
// returns them keyed by file:line.
func collectWants(t *testing.T, root string) map[string][]*regexp.Regexp {
	t.Helper()
	wants := make(map[string][]*regexp.Regexp)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		for i, line := range strings.Split(string(data), "\n") {
			_, spec, ok := strings.Cut(line, "// want ")
			if !ok {
				continue
			}
			key := fmt.Sprintf("%s:%d", rel, i+1)
			for _, m := range wantRx.FindAllStringSubmatch(spec, -1) {
				rx, err := regexp.Compile(m[1])
				if err != nil {
					return fmt.Errorf("%s: bad want pattern %q: %v", key, m[1], err)
				}
				wants[key] = append(wants[key], rx)
			}
			if len(wantRx.FindAllString(spec, -1)) == 0 {
				return fmt.Errorf("%s: want comment with no backquoted pattern", key)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return wants
}

// TestCorpusWant runs every check over the corpus module and matches
// findings against the inline // want annotations, in both directions:
// an unexpected finding fails, and an unmatched want fails. The
// suppress pseudo-check is asserted separately (its findings land on
// comment lines, where want annotations cannot live).
func TestCorpusWant(t *testing.T) {
	_, findings := corpusFindings(t)
	wants := collectWants(t, filepath.Join("testdata", "src"))

	for _, f := range findings {
		if f.Check == CheckSuppress {
			continue
		}
		key := fmt.Sprintf("%s:%d", f.File, f.Line)
		text := fmt.Sprintf("[%s] %s", f.Check, f.Message)
		matched := false
		rest := wants[key][:0:0]
		for _, rx := range wants[key] {
			if !matched && rx.MatchString(text) {
				matched = true
				continue
			}
			rest = append(rest, rx)
		}
		wants[key] = rest
		if !matched {
			t.Errorf("unexpected finding %s: %s", key, text)
		}
	}
	for key, rxs := range wants {
		for _, rx := range rxs {
			t.Errorf("%s: expected finding matching %q, got none", key, rx)
		}
	}
}

// TestSuppressionFindings pins the malformed-annotation behavior: a
// scmvet:ok without a reason and one naming an unknown check are
// reported, and neither suppresses the finding it sat above.
func TestSuppressionFindings(t *testing.T) {
	_, findings := corpusFindings(t)
	var got []Finding
	for _, f := range findings {
		if f.Check == CheckSuppress {
			got = append(got, f)
		}
	}
	if len(got) != 2 {
		t.Fatalf("suppress findings = %d, want 2: %v", len(got), got)
	}
	for _, f := range got {
		if f.File != "internal/bad/suppress.go" {
			t.Errorf("suppress finding in %s, want internal/bad/suppress.go", f.File)
		}
	}
	if !strings.Contains(got[0].Message, "needs a check name and a reason") {
		t.Errorf("first suppress finding = %q, want missing-reason complaint", got[0].Message)
	}
	if !strings.Contains(got[1].Message, `unknown check "speling"`) {
		t.Errorf("second suppress finding = %q, want unknown-check complaint", got[1].Message)
	}
}

// TestValidSuppressionsConsume checks that the corpus's well-formed
// annotations removed their findings: no finding may remain on a line
// covered by a matching scmvet:ok.
func TestValidSuppressionsConsume(t *testing.T) {
	_, findings := corpusFindings(t)
	for _, f := range findings {
		if strings.Contains(f.Message, "scmvet:ok") && f.Check != CheckSuppress {
			t.Errorf("finding about a suppression comment escaped: %+v", f)
		}
	}
	// The annotated seam in the accounting corpus must not fire.
	for _, f := range findings {
		if f.File == "internal/tiling/acct.go" && f.Check == CheckAccounting && f.Line > 20 {
			if strings.Contains(f.Message, "Aggregate") {
				t.Errorf("annotated aggregation seam still flagged: %+v", f)
			}
		}
	}
}

// writeModule materializes a throwaway module for violation seeding.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, content := range files {
		full := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestSeededViolation is the acceptance drill: dropping a time.Now into
// internal/core of a clean module must produce exactly one determinism
// finding at that file and line.
func TestSeededViolation(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module example.com/seeded\n\ngo 1.22\n",
		"internal/core/clean.go": `package core

// Pure is contract-clean.
func Pure(a, b int64) int64 { return a + b }
`,
		"internal/core/bad.go": `package core

import "time"

// Bad reads the wall clock in a deterministic package.
func Bad() time.Time {
	return time.Now()
}
`,
	})
	mod, err := LoadModule(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.SnapshotRoots = nil // the throwaway module defines no schema roots
	findings := Run(mod, cfg)
	if len(findings) != 1 {
		t.Fatalf("findings = %v, want exactly one", findings)
	}
	f := findings[0]
	if f.File != "internal/core/bad.go" || f.Line != 7 || f.Check != CheckDeterminism {
		t.Errorf("finding = %+v, want determinism at internal/core/bad.go:7", f)
	}
	if want := "internal/core/bad.go:7: [determinism]"; !strings.HasPrefix(f.String(), want) {
		t.Errorf("String() = %q, want prefix %q", f.String(), want)
	}
}

// TestCheckSelection runs a single check over the corpus and verifies
// the others stay silent.
func TestCheckSelection(t *testing.T) {
	mod, _ := corpusFindings(t)
	cfg := DefaultConfig()
	cfg.Checks = []string{CheckNoPanic}
	for _, f := range Run(mod, cfg) {
		if f.Check != CheckNoPanic && f.Check != CheckSuppress {
			t.Errorf("check selection leaked %+v", f)
		}
	}
}

// TestFindingString pins the vet output format the CI step greps.
func TestFindingString(t *testing.T) {
	f := Finding{File: "internal/core/sim.go", Line: 42, Col: 7, Check: CheckDeterminism, Message: "boom"}
	if got, want := f.String(), "internal/core/sim.go:42: [determinism] boom"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
