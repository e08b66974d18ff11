// Command scm-vet runs the repository's contract checks — determinism
// (direct and transitive), no-panic, traffic accounting, ignored
// errors, locking, context flow, snapshot schema stability — over the
// module and reports violations in vet format.
//
// Usage:
//
//	go run ./cmd/scm-vet ./...
//	go run ./cmd/scm-vet -json ./internal/core/
//	go run ./cmd/scm-vet -checks determinism,nopanic ./...
//	go run ./cmd/scm-vet -sarif out.sarif ./...
//
// Patterns are package directories relative to the current directory;
// "./..." covers the whole module and "./x/..." a subtree.
//
// -sarif writes the findings as a SARIF 2.1.0 log alongside the normal
// output, for GitHub code scanning upload. An inline scmvet:ok
// directive is the one way to suppress a finding. Exit status is 0
// when clean, 1 when findings were reported, 2 on usage or load
// errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"shortcutmining/internal/analysis"
	"shortcutmining/internal/jsonindent"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scm-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array instead of vet text")
	checks := fs.String("checks", "", "comma-separated subset of checks to run (default all: "+strings.Join(analysis.AllChecks(), ",")+")")
	sarifOut := fs.String("sarif", "", "also write findings as a SARIF 2.1.0 log to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "scm-vet:", err)
		return 2
	}
	root, err := analysis.FindModuleRoot(cwd)
	if err != nil {
		fmt.Fprintln(stderr, "scm-vet:", err)
		return 2
	}

	cfg := analysis.DefaultConfig()
	if *checks != "" {
		for _, name := range strings.Split(*checks, ",") {
			ok := false
			for _, known := range analysis.AllChecks() {
				if name == known {
					ok = true
				}
			}
			if !ok {
				fmt.Fprintf(stderr, "scm-vet: unknown check %q (have %s)\n", name, strings.Join(analysis.AllChecks(), ", "))
				return 2
			}
			cfg.Checks = append(cfg.Checks, name)
		}
	}

	prefixes, all, err := resolvePatterns(patterns, cwd, root)
	if err != nil {
		fmt.Fprintln(stderr, "scm-vet:", err)
		return 2
	}

	mod, err := analysis.LoadModule(root)
	if err != nil {
		fmt.Fprintln(stderr, "scm-vet:", err)
		return 2
	}
	findings := analysis.Run(mod, cfg)
	if !all {
		findings = filterByDir(findings, prefixes)
	}

	if *sarifOut != "" {
		if err := writeSARIF(*sarifOut, findings); err != nil {
			fmt.Fprintln(stderr, "scm-vet:", err)
			return 2
		}
	}

	if *jsonOut {
		if findings == nil {
			findings = []analysis.Finding{}
		}
		if err := jsonindent.Encode(stdout, findings); err != nil {
			fmt.Fprintln(stderr, "scm-vet:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "scm-vet: %d finding(s)\n", len(findings))
		}
		return 1
	}
	return 0
}

// resolvePatterns turns CLI package patterns into module-relative
// directory prefixes. The boolean reports "everything" (./... at the
// module root).
func resolvePatterns(patterns []string, cwd, root string) (prefixes []string, all bool, err error) {
	for _, pat := range patterns {
		recursive := false
		if strings.HasSuffix(pat, "/...") {
			recursive = true
			pat = strings.TrimSuffix(pat, "/...")
			if pat == "." || pat == "" {
				pat = "."
			}
		}
		abs := pat
		if !filepath.IsAbs(pat) {
			abs = filepath.Join(cwd, pat)
		}
		rel, relErr := filepath.Rel(root, abs)
		if relErr != nil || strings.HasPrefix(rel, "..") {
			return nil, false, fmt.Errorf("pattern %q is outside module root %s", pat, root)
		}
		rel = filepath.ToSlash(rel)
		if rel == "." {
			rel = ""
		}
		if recursive && rel == "" {
			return nil, true, nil
		}
		// A bare directory and dir/... match the same subtree.
		prefixes = append(prefixes, rel)
	}
	return prefixes, false, nil
}

// filterByDir keeps findings whose file lives under one of the prefixes.
func filterByDir(findings []analysis.Finding, prefixes []string) []analysis.Finding {
	var out []analysis.Finding
	for _, f := range findings {
		dir := filepath.ToSlash(filepath.Dir(f.File))
		if dir == "." {
			dir = ""
		}
		for _, p := range prefixes {
			if dir == p || strings.HasPrefix(dir, p+"/") {
				out = append(out, f)
				break
			}
		}
	}
	return out
}
