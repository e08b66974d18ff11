package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// callee resolves the function object a call invokes, or nil for
// indirect calls and conversions.
func (p *pass) callee(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.pkg.Info.Uses[id].(*types.Func)
	return fn
}

// isBuiltin reports whether a call invokes the named builtin.
func (p *pass) isBuiltin(call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	b, ok := p.pkg.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// eachFunc visits every function and method declaration of the package
// along with its body.
func (p *pass) eachFunc(fn func(decl *ast.FuncDecl)) {
	for _, file := range p.pkg.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}

// globalRandAllowed are the math/rand package-level functions that
// construct seeded generators — the sanctioned path to randomness.
var globalRandAllowed = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true, // math/rand/v2 sources
}

// checkDeterminism forbids wall-clock reads and the process-global
// math/rand generator in every library package, and map iteration in
// the packages whose outputs must be bit-identical across runs.
func checkDeterminism(p *pass) {
	if isCommandPkg(p.pkg.RelPath) {
		return
	}
	det := contains(p.cfg.DeterministicPkgs, p.pkg.RelPath)
	for _, file := range p.pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				fn := p.callee(n)
				if fn == nil || fn.Pkg() == nil {
					return true
				}
				switch fn.Pkg().Path() {
				case "time":
					switch fn.Name() {
					case "Now", "Since", "Until":
						p.report(CheckDeterminism, n.Pos(),
							"time.%s reads the wall clock; inject a Clock (or annotate the single seam) so runs stay reproducible", fn.Name())
					}
				case "math/rand", "math/rand/v2":
					sig, ok := fn.Type().(*types.Signature)
					if !ok || sig.Recv() != nil {
						return true // methods on an explicit *rand.Rand are seeded by construction
					}
					if !globalRandAllowed[fn.Name()] {
						p.report(CheckDeterminism, n.Pos(),
							"global rand.%s uses the shared process generator; use rand.New(rand.NewSource(seed)) instead", fn.Name())
					}
				}
			case *ast.RangeStmt:
				if !det {
					return true
				}
				t := p.pkg.Info.TypeOf(n.X)
				if t == nil {
					return true
				}
				if _, ok := t.Underlying().(*types.Map); ok {
					p.report(CheckDeterminism, n.Pos(),
						"map iteration order is not deterministic in package %s; sort the keys first or annotate why order cannot matter", p.pkg.RelPath)
				}
			}
			return true
		})
	}
}

// checkNoPanic forbids panic in library packages (Must* wrappers
// excepted) and confines Must* wrapper calls to cmd/, examples, and
// tests.
func checkNoPanic(p *pass) {
	if isCommandPkg(p.pkg.RelPath) || contains(p.cfg.NoPanicExemptPkgs, p.pkg.RelPath) {
		return
	}
	p.eachFunc(func(decl *ast.FuncDecl) {
		inMust := strings.HasPrefix(decl.Name.Name, "Must")
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if p.isBuiltin(call, "panic") && !inMust {
				p.report(CheckNoPanic, call.Pos(),
					"library code must return an error instead of panicking (or move the panic into a checked Must* wrapper)")
				return true
			}
			fn := p.callee(call)
			if fn == nil || fn.Pkg() == nil || !strings.HasPrefix(fn.Name(), "Must") {
				return true
			}
			pkgPath := fn.Pkg().Path()
			if pkgPath != p.mod.Path && !strings.HasPrefix(pkgPath, p.mod.Path+"/") {
				return true // stdlib Must helpers (regexp.MustCompile on literals) are out of scope
			}
			p.report(CheckNoPanic, call.Pos(),
				"%s may panic; library code must use the error-returning variant (Must* is for cmd/, examples, and tests)", fn.Name())
			return true
		})
	})
}

// ledgerType reports whether t (after stripping pointers) is one of the
// configured byte-accounting ledger types.
func (p *pass) ledgerType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return contains(p.cfg.LedgerTypes, p.mod.RelType(named.Obj()))
}

// ledgerWrite reports whether assigning through expr mutates ledger
// storage that outlives the statement — a struct field, a pointer
// deref, or an element reached through either. Writes to plain local
// variables only touch a copy (Traffic is a value type), so scratch
// arithmetic like `delta := ch.Traffic(); delta[c] -= before[c]` stays
// clean; the moment the result persists into a field, the write is
// flagged.
func (p *pass) ledgerWrite(expr ast.Expr) bool {
	expr = ast.Unparen(expr)
	switch e := expr.(type) {
	case *ast.SelectorExpr:
		return p.ledgerType(p.pkg.Info.TypeOf(e))
	case *ast.StarExpr:
		return p.ledgerType(p.pkg.Info.TypeOf(e.X))
	case *ast.IndexExpr:
		base := ast.Unparen(e.X)
		if !p.ledgerType(p.pkg.Info.TypeOf(base)) {
			return false
		}
		return p.persistentBase(base)
	}
	return false
}

// persistentBase reports whether a ledger-typed expression denotes
// shared storage rather than a local value copy.
func (p *pass) persistentBase(expr ast.Expr) bool {
	if id, ok := ast.Unparen(expr).(*ast.Ident); ok {
		t := p.pkg.Info.TypeOf(id)
		if t == nil {
			return false
		}
		_, isPtr := t.Underlying().(*types.Pointer)
		return isPtr // a pointer-typed local still reaches the shared ledger
	}
	return true
}

// checkAccounting flags writes to Traffic-ledger values outside the
// memory-model packages, so new subsystems cannot quietly add or scale
// paper-facing byte tallies.
func checkAccounting(p *pass) {
	if isCommandPkg(p.pkg.RelPath) || contains(p.cfg.LedgerWriterPkgs, p.pkg.RelPath) {
		return
	}
	for _, file := range p.pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if p.ledgerWrite(lhs) {
						p.report(CheckAccounting, lhs.Pos(),
							"write to traffic ledger outside %s; record bytes through the memory models or annotate the aggregation seam",
							strings.Join(p.cfg.LedgerWriterPkgs, "/"))
					}
				}
			case *ast.IncDecStmt:
				if p.ledgerWrite(n.X) {
					p.report(CheckAccounting, n.X.Pos(),
						"write to traffic ledger outside %s; record bytes through the memory models or annotate the aggregation seam",
						strings.Join(p.cfg.LedgerWriterPkgs, "/"))
				}
			case *ast.CallExpr:
				sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn := p.callee(n)
				if fn == nil {
					return true
				}
				sig, ok := fn.Type().(*types.Signature)
				if !ok || sig.Recv() == nil {
					return true
				}
				if _, ptr := sig.Recv().Type().(*types.Pointer); ptr &&
					p.ledgerType(sig.Recv().Type()) &&
					p.ledgerType(p.pkg.Info.TypeOf(sel.X)) && p.persistentBase(sel.X) {
					p.report(CheckAccounting, n.Pos(),
						"%s mutates a traffic ledger outside %s; record bytes through the memory models or annotate the aggregation seam",
						fn.Name(), strings.Join(p.cfg.LedgerWriterPkgs, "/"))
				}
			}
			return true
		})
	}
}

// errorType reports whether t is the built-in error interface.
func errorType(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

// errorResults returns the positions of error-typed results of a call,
// or nil when the call returns no error.
func (p *pass) errorResults(call *ast.CallExpr) []int {
	t := p.pkg.Info.TypeOf(call)
	if t == nil {
		return nil
	}
	switch t := t.(type) {
	case *types.Tuple:
		var out []int
		for i := 0; i < t.Len(); i++ {
			if errorType(t.At(i).Type()) {
				out = append(out, i)
			}
		}
		return out
	default:
		if errorType(t) {
			return []int{0}
		}
	}
	return nil
}

// neverFails reports whether a call's error result is statically known
// to be nil: a method on a NeverFailTypes receiver, or an fmt.Fprint*/
// io.WriteString whose destination is such a type.
func (p *pass) neverFails(call *ast.CallExpr) bool {
	match := func(t types.Type) bool {
		if t == nil {
			return false
		}
		s := strings.TrimPrefix(t.String(), "*")
		return contains(p.cfg.NeverFailTypes, s)
	}
	fn := p.callee(call)
	if fn == nil {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			return match(p.pkg.Info.TypeOf(sel.X))
		}
		return false
	}
	if fn.Pkg() == nil || len(call.Args) == 0 {
		return false
	}
	full := fn.Pkg().Path() + "." + fn.Name()
	switch full {
	case "fmt.Fprint", "fmt.Fprintf", "fmt.Fprintln", "io.WriteString":
		return match(p.pkg.Info.TypeOf(call.Args[0]))
	}
	return false
}

// checkIgnoredErr flags discarded error results in library packages:
// bare call statements and errors assigned to blank.
func checkIgnoredErr(p *pass) {
	if isCommandPkg(p.pkg.RelPath) {
		return
	}
	for _, file := range p.pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				call, ok := n.X.(*ast.CallExpr)
				if !ok {
					return true
				}
				if errs := p.errorResults(call); len(errs) > 0 && !p.neverFails(call) {
					p.report(CheckIgnoredErr, call.Pos(),
						"call discards its error result; handle it, return it, or annotate why it cannot fail")
				}
			case *ast.AssignStmt:
				if len(n.Rhs) != 1 {
					return true
				}
				call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
				if !ok || p.neverFails(call) {
					return true
				}
				for _, i := range p.errorResults(call) {
					if i >= len(n.Lhs) {
						continue
					}
					if id, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident); ok && id.Name == "_" {
						p.report(CheckIgnoredErr, n.Lhs[i].Pos(),
							"error assigned to blank; handle it, return it, or annotate why it cannot fail")
					}
				}
			}
			return true
		})
	}
}
