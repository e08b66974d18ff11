// Package analysis is scm-vet: a standard-library-only static analyzer
// that enforces this repository's simulator contracts at review time
// instead of waiting for a golden test or a cache key to diverge.
//
// Five intra-package checks run over every non-test package of the
// module:
//
//   - determinism: no wall-clock reads (time.Now/Since/Until) and no
//     global math/rand calls anywhere in library code, and no ranging
//     over maps in the deterministic packages whose outputs feed
//     RunStats, Traffic ledgers, metrics snapshots, or cache keys.
//   - nopanic: library packages return errors instead of panicking.
//     Checked Must* wrappers may panic but may only be called from
//     cmd/, examples, and tests.
//   - accounting: the paper-facing Traffic ledgers are written only by
//     the memory models (internal/dram, internal/sram); everything else
//     must go through a Channel/Pool so retry or tenancy bytes cannot
//     leak into headline numbers.
//   - ignorederr: library code must not discard error results, either
//     by a bare call statement or by assigning them to blank.
//   - immutable: fields of a built network (nn.Network, nn.Layer) are
//     written only inside internal/nn — by assignment, inc/dec, or
//     append/copy/clear into a field — in every package, commands
//     included, because every run shares the plan Builder.Finish
//     computed from the graph.
//
// Four more checks run on top of a conservative module-wide call graph
// (direct calls only — calls through interfaces and function values are
// invisible, so these checks under-approximate; see graph.go):
//
//   - locking: struct fields annotated `guarded by <mu>` may only be
//     read or written inside a function that locks (or RLocks) the
//     named sibling mutex on the same base expression. Functions whose
//     name ends in "Locked" are assumed to be called with the lock
//     held; constructors touching a value they just built are exempt.
//   - ctxflow: a function that receives a context.Context must not
//     start a fresh context below it — neither by calling
//     context.Background/TODO directly (the `if ctx == nil { ctx =
//     context.Background() }` normalization idiom is allowed) nor by
//     calling a context-free module function that reaches one through
//     the call graph.
//   - snapshotstable: every struct reachable from the configured
//     serialized-schema roots (core.RunSnapshot, journal records, the
//     host object of every benchmark report) must have only exported
//     fields with explicit json tags, and no map, interface, func, or
//     chan fields — schema drift there silently breaks crash recovery
//     and the decoding of committed benchmark reports.
//   - determinism-transitive: a function in a deterministic package
//     must not *reach* a wall-clock read, global-rand call, or map
//     range through the call graph, even when the operation lives in a
//     package where it is individually legal. Findings land on the
//     frontier call site; annotating the operation's own line with
//     determinism or determinism-transitive clears every caller.
//
// Findings can be suppressed per line with a justified annotation:
//
//	// scmvet:ok <check>[,<check>] <reason>
//
// The reason is mandatory; a bare "scmvet:ok determinism" is itself
// reported. The comment covers its own line, or the following line when
// it stands alone.
package analysis

import (
	"bytes"
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Check names, as they appear in findings and suppression comments.
const (
	CheckDeterminism   = "determinism"
	CheckNoPanic       = "nopanic"
	CheckAccounting    = "accounting"
	CheckIgnoredErr    = "ignorederr"
	CheckLocking       = "locking"
	CheckCtxFlow       = "ctxflow"
	CheckSnapshot      = "snapshotstable"
	CheckDetTransitive = "determinism-transitive"
	CheckImmutable     = "immutable"
	// CheckSuppress reports malformed scmvet:ok annotations; it cannot
	// itself be suppressed.
	CheckSuppress = "suppress"
)

// AllChecks lists every selectable check in output order.
func AllChecks() []string {
	return []string{
		CheckDeterminism, CheckNoPanic, CheckAccounting, CheckIgnoredErr,
		CheckLocking, CheckCtxFlow, CheckSnapshot, CheckDetTransitive,
		CheckImmutable,
	}
}

// Finding is one rule violation.
type Finding struct {
	// File is the path relative to the module root.
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	// Check is the rule that fired (determinism, nopanic, ...).
	Check   string `json:"check"`
	Message string `json:"message"`
}

// String renders the finding in the vet-style file:line: [check] form
// the CI step greps for.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.File, f.Line, f.Check, f.Message)
}

// Config tunes the checks to a module's layout. Paths are relative to
// the module root so the same defaults apply to the test corpus.
type Config struct {
	// Checks selects which rules run; nil means all.
	Checks []string

	// DeterministicPkgs are the packages whose outputs must be
	// bit-identical across runs: map iteration order is forbidden there.
	// The call rules (wall clock, global rand) apply to every library
	// package regardless.
	DeterministicPkgs []string

	// NoPanicExemptPkgs may panic: documented must-not-fail registration
	// paths where returning an error would be worse than crashing.
	NoPanicExemptPkgs []string

	// LedgerTypes are the byte-accounting types (as "relpkg.Name") whose
	// values may only be written inside LedgerWriterPkgs.
	LedgerTypes []string

	// LedgerWriterPkgs are the packages allowed to write ledger values —
	// the memory models that actually move the bytes.
	LedgerWriterPkgs []string

	// NeverFailTypes are types whose error results are statically known
	// to be nil (strings.Builder, bytes.Buffer, hash.Hash); discarding
	// their errors is fine. A leading * is ignored when matching.
	NeverFailTypes []string

	// SnapshotRoots name the serialized-schema root types (as
	// "relpkg.Name", unexported names allowed) whose reachable struct
	// graph the snapshotstable check walks. A configured root that no
	// longer resolves is itself a finding, so a rename cannot silently
	// turn the check off.
	SnapshotRoots []string
}

// DefaultConfig returns the contract configuration for this repository.
func DefaultConfig() Config {
	return Config{
		DeterministicPkgs: []string{
			"internal/core", "internal/sched", "internal/sram",
			"internal/dram", "internal/tiling", "internal/fused",
			"internal/dse", "internal/report", "internal/stats",
			"internal/metrics", "internal/noc", "internal/cluster",
		},
		NoPanicExemptPkgs: []string{"internal/metrics"},
		LedgerTypes:       []string{"internal/dram.Traffic"},
		LedgerWriterPkgs:  []string{"internal/dram", "internal/sram"},
		NeverFailTypes:    []string{"strings.Builder", "bytes.Buffer", "hash.Hash", "hash.Hash32", "hash.Hash64"},
		SnapshotRoots: []string{
			"internal/core.RunSnapshot", "internal/journal.Record", "internal/bench.Host",
		},
	}
}

func (c Config) checkEnabled(name string) bool {
	if len(c.Checks) == 0 {
		return true
	}
	for _, n := range c.Checks {
		if n == name {
			return true
		}
	}
	return false
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// isCommandPkg reports whether rel is a main-program directory exempt
// from the library-code rules.
func isCommandPkg(rel string) bool {
	return rel == "cmd" || strings.HasPrefix(rel, "cmd/") ||
		rel == "examples" || strings.HasPrefix(rel, "examples/")
}

// suppression is one parsed scmvet:ok annotation.
type suppression struct {
	checks []string
	line   int // the line the annotation covers
	pos    token.Pos
	used   bool
}

// suppressions indexes a package's annotations by file and line.
type suppressions map[string]map[int][]*suppression

// ParseDirective parses the text following the "scmvet:ok" marker into
// its check list. A non-empty problem is the exact message reported as
// a suppress finding: a directive needs at least one known check name
// and a reason. Exported for the fuzz target; never panics on any
// input.
func ParseDirective(rest string) (checks []string, problem string) {
	fields := strings.Fields(rest)
	if len(fields) < 2 {
		return nil, "scmvet:ok needs a check name and a reason: // scmvet:ok <check>[,<check>] <reason>"
	}
	checks = strings.Split(fields[0], ",")
	for _, name := range checks {
		if !contains(AllChecks(), name) {
			return nil, fmt.Sprintf("scmvet:ok names unknown check %q (have %s)", name, strings.Join(AllChecks(), ", "))
		}
	}
	return checks, ""
}

// parseSuppressions scans a package's comments for scmvet:ok
// annotations. Malformed annotations (no reason, unknown check) are
// reported as findings of the suppress pseudo-check.
func parseSuppressions(p *pass) suppressions {
	const marker = "scmvet:ok"
	sup := make(suppressions)
	for fi, file := range p.pkg.Files {
		src := p.pkg.Src[fi]
		for _, group := range file.Comments {
			for _, c := range group.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimPrefix(text, "/*")
				text = strings.TrimSuffix(text, "*/")
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, marker)
				if !ok {
					continue
				}
				pos := p.mod.Fset.Position(c.Pos())
				checks, problem := ParseDirective(rest)
				if problem != "" {
					p.reportRaw(Finding{
						File: relFile(p, pos.Filename), Line: pos.Line, Col: pos.Column,
						Check: CheckSuppress, Message: problem,
					})
					continue
				}
				line := pos.Line
				if standsAlone(src, pos) {
					line++ // a comment on its own line covers the next one
				}
				byLine := sup[pos.Filename]
				if byLine == nil {
					byLine = make(map[int][]*suppression)
					sup[pos.Filename] = byLine
				}
				s := &suppression{checks: checks, line: line, pos: c.Pos()}
				byLine[line] = append(byLine[line], s)
			}
		}
	}
	return sup
}

// standsAlone reports whether only whitespace precedes the comment on
// its line.
func standsAlone(src []byte, pos token.Position) bool {
	off := pos.Offset
	start := off
	for start > 0 && src[start-1] != '\n' {
		start--
	}
	return len(bytes.TrimSpace(src[start:off])) == 0
}

// Run executes the configured checks over every package of mod and
// returns the surviving findings sorted by file, line, column, check.
func Run(mod *Module, cfg Config) []Finding {
	var findings []Finding
	passes := make([]*pass, 0, len(mod.Pkgs))
	for _, pkg := range mod.Pkgs {
		p := &pass{mod: mod, pkg: pkg, cfg: cfg, findings: &findings}
		p.sup = parseSuppressions(p)
		passes = append(passes, p)
	}
	var g *graph
	if cfg.checkEnabled(CheckLocking) || cfg.checkEnabled(CheckCtxFlow) ||
		cfg.checkEnabled(CheckSnapshot) || cfg.checkEnabled(CheckDetTransitive) {
		g = buildGraph(mod, cfg, passes)
	}
	for _, p := range passes {
		if cfg.checkEnabled(CheckDeterminism) {
			checkDeterminism(p)
		}
		if cfg.checkEnabled(CheckNoPanic) {
			checkNoPanic(p)
		}
		if cfg.checkEnabled(CheckAccounting) {
			checkAccounting(p)
		}
		if cfg.checkEnabled(CheckIgnoredErr) {
			checkIgnoredErr(p)
		}
		if cfg.checkEnabled(CheckImmutable) {
			checkImmutable(p)
		}
		if cfg.checkEnabled(CheckLocking) {
			checkLocking(p, g)
		}
		if cfg.checkEnabled(CheckCtxFlow) {
			checkCtxFlow(p, g)
		}
		if cfg.checkEnabled(CheckDetTransitive) {
			checkDetTransitive(p, g)
		}
	}
	if cfg.checkEnabled(CheckSnapshot) {
		checkSnapshotStable(g)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
	return findings
}

// pass carries one package through the checks.
type pass struct {
	mod      *Module
	pkg      *Package
	cfg      Config
	sup      suppressions
	findings *[]Finding
}

// relFile converts an absolute filename to a module-root-relative,
// slash-separated path for stable output.
func relFile(p *pass, filename string) string {
	if rel, ok := strings.CutPrefix(filename, p.mod.Root+"/"); ok {
		return rel
	}
	return filename
}

// suppressedAt reports whether a matching scmvet:ok covers pos.
// report consults it before filing; the call-graph taint collection
// uses it directly so an annotated source line does not poison every
// caller.
func (p *pass) suppressedAt(check string, pos token.Pos) bool {
	position := p.mod.Fset.Position(pos)
	for _, s := range p.sup[position.Filename][position.Line] {
		if contains(s.checks, check) {
			s.used = true
			return true
		}
	}
	return false
}

// report files a finding unless a matching suppression covers the line.
func (p *pass) report(check string, pos token.Pos, format string, args ...any) {
	if p.suppressedAt(check, pos) {
		return
	}
	position := p.mod.Fset.Position(pos)
	p.reportRaw(Finding{
		File: relFile(p, position.Filename), Line: position.Line, Col: position.Column,
		Check: check, Message: fmt.Sprintf(format, args...),
	})
}

func (p *pass) reportRaw(f Finding) { *p.findings = append(*p.findings, f) }
