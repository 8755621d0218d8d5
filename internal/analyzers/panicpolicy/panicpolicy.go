// Package panicpolicy enforces the repo's panic contract for library
// code: a panic may assert a programmer-error invariant, but it must
// never be the transport for a data-dependent failure.
//
// The memserver service executes requests on its bank executor
// goroutines; a panic there is not a 500 — it kills the process. So in
// internal/ packages, the service's supply chain, a panic whose
// argument carries a function-local error value (panic(err),
// panic(fmt.Errorf("...: %w", err))) is flagged: an error a callee
// just handed you is data, not an invariant, and it must be returned.
//
// Three forms stay legal without annotation:
//
//   - panics inside Must*-named functions — the documented
//     panic-on-error wrappers for literal test/example configs;
//   - panics whose argument mentions no local error value
//     (panic("pkg: invariant"), panic(fmt.Errorf("pkg: LA %d out of
//     range %d", la, n))) — these state preconditions;
//   - panics referencing only package-level sentinel errors
//     (panic(fmt.Errorf("%w: %d", ErrBadAddress, pa))) — the sentinel
//     is part of the stated invariant, not propagated data.
//
// A provably unreachable propagation (constructor re-validating inputs
// already validated) may be annotated in place:
//
//	//rbsglint:allow panicpolicy -- unreachable: width validated at construction
package panicpolicy

import (
	"go/ast"
	"go/types"
	"strings"

	"securityrbsg/internal/analyzers/analysis"
)

// Analyzer is the panicpolicy pass.
var Analyzer = &analysis.Analyzer{
	Name: "panicpolicy",
	Doc:  "library panics may assert invariants but never propagate data-dependent errors",
	Run:  run,
}

// scopePrefix limits the pass to library packages; binaries under cmd/
// own their process and may crash how they like.
const scopePrefix = "securityrbsg/internal/"

func run(pass *analysis.Pass) error {
	if !strings.HasPrefix(pass.Pkg.Path(), scopePrefix) {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if strings.HasPrefix(fn.Name.Name, "Must") || strings.HasPrefix(fn.Name.Name, "must") {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) != 1 || !isPanic(pass, call.Fun) {
					return true
				}
				if name, ok := localError(pass, call.Args[0]); ok {
					pass.Reportf(call.Pos(), "panic propagates the data-dependent error %q: return it instead (a panic on an executor goroutine kills the service); if it is a provable invariant, wrap it in a Must* helper or annotate with //rbsglint:allow", name)
				}
				return true
			})
		}
	}
	return nil
}

// isPanic reports whether fun resolves to the builtin panic.
func isPanic(pass *analysis.Pass, fun ast.Expr) bool {
	id, ok := fun.(*ast.Ident)
	if !ok {
		return false
	}
	obj, ok := pass.TypesInfo.Uses[id]
	if !ok {
		return false
	}
	b, ok := obj.(*types.Builtin)
	return ok && b.Name() == "panic"
}

// localError scans the panic argument for a reference to a
// function-local variable (or parameter) whose type is or implements
// error. Package-level sentinels are exempt.
func localError(pass *analysis.Pass, arg ast.Expr) (string, bool) {
	errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	var name string
	found := false
	ast.Inspect(arg, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Parent() == nil || v.Parent() == pass.Pkg.Scope() {
			return true // package-level sentinel
		}
		t := v.Type()
		if types.Implements(t, errIface) || types.Implements(types.NewPointer(t), errIface) {
			name, found = v.Name(), true
			return false
		}
		return true
	})
	return name, found
}
