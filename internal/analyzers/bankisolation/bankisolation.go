// Package bankisolation mechanizes the membank godoc contract: scheme,
// PCM and bank state is single-writer — exactly one goroutine may touch
// a given instance — and the only sanctioned place to multiplex
// goroutines over that state is internal/memserver's actor layer.
//
// The pass flags, in every package except internal/memserver (the actor
// layer) and internal/parallel (the spawn helper itself):
//
//   - `go` statements whose function literal captures a variable of a
//     restricted simulation type declared outside the literal;
//   - `go` statements that call a method on, or pass an argument of, a
//     restricted type (the value escapes to the new goroutine);
//   - calls to internal/parallel helpers whose worker closure captures
//     a restricted value — those closures run on many goroutines at
//     once.
//
// Restricted types are the named struct and interface types of the
// simulation-state packages (membank, pcm, wear, core, seclevel, rbsg,
// secref, startgap, tablewl, feistel, detector, stats, workload,
// attack, exactsim).
// Plain value kinds like pcm.Content (a uint8) are not restricted:
// sharing a copy of a number is harmless, sharing a scheme is not.
// Constructing a fresh instance inside the goroutine is always legal —
// that is precisely the per-worker pattern the Monte-Carlo estimators
// use.
package bankisolation

import (
	"go/ast"
	"go/types"

	"securityrbsg/internal/analyzers/analysis"
)

// Analyzer is the bankisolation pass.
var Analyzer = &analysis.Analyzer{
	Name: "bankisolation",
	Doc:  "forbid sharing scheme/PCM/bank state across goroutines outside the memserver actor layer",
	Run:  run,
}

// exemptPkgs may share simulation state across goroutines: memserver is
// the actor layer the contract blesses, parallel implements the
// spawning itself.
var exemptPkgs = map[string]bool{
	"securityrbsg/internal/memserver": true,
	"securityrbsg/internal/parallel":  true,
}

// statePkgs define the non-thread-safe simulation state.
var statePkgs = map[string]bool{
	"securityrbsg/internal/membank":  true,
	"securityrbsg/internal/pcm":      true,
	"securityrbsg/internal/wear":     true,
	"securityrbsg/internal/core":     true,
	"securityrbsg/internal/seclevel": true,
	"securityrbsg/internal/rbsg":     true,
	"securityrbsg/internal/secref":   true,
	"securityrbsg/internal/startgap": true,
	"securityrbsg/internal/tablewl":  true,
	"securityrbsg/internal/feistel":  true,
	"securityrbsg/internal/detector": true,
	"securityrbsg/internal/stats":    true,
	"securityrbsg/internal/workload": true,
	"securityrbsg/internal/attack":   true,
	"securityrbsg/internal/exactsim": true,
}

// parallelPkg is the goroutine-spawning helper package: function
// literals passed to it run concurrently on worker goroutines.
const parallelPkg = "securityrbsg/internal/parallel"

func run(pass *analysis.Pass) error {
	if exemptPkgs[pass.Pkg.Path()] {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				checkSpawn(pass, n.Call, "a goroutine")
			case *ast.CallExpr:
				if name, ok := parallelHelper(pass, n); ok {
					for _, arg := range n.Args {
						if lit, ok := arg.(*ast.FuncLit); ok {
							checkCaptures(pass, lit, "parallel."+name+" workers")
						}
					}
				}
			}
			return true
		})
	}
	return nil
}

// parallelHelper reports whether call invokes a function from the
// internal/parallel package, returning its name.
func parallelHelper(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	obj, ok := pass.TypesInfo.Uses[sel.Sel]
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != parallelPkg {
		return "", false
	}
	if _, ok := obj.(*types.Func); !ok {
		return "", false
	}
	return obj.Name(), true
}

// checkSpawn inspects the call expression of a `go` statement. A
// function literal is checked for captures; a regular call leaks its
// receiver and arguments into the new goroutine, so those are checked
// directly.
func checkSpawn(pass *analysis.Pass, call *ast.CallExpr, where string) {
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		checkCaptures(pass, lit, where)
		// Evaluated arguments still escape: `go func(b *membank.Bank)
		// {...}(bank)` shares bank just as surely as a capture.
	}
	for _, arg := range call.Args {
		if name, ok := restricted(pass.TypeOf(arg)); ok {
			pass.Reportf(arg.Pos(), "%s escapes into %s: simulation state is single-writer per bank (membank contract); confine it to one goroutine or go through internal/memserver's actors", name, where)
		}
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if name, ok := restricted(pass.TypeOf(sel.X)); ok {
			pass.Reportf(call.Pos(), "method of %s runs on %s: simulation state is single-writer per bank (membank contract); confine it to one goroutine or go through internal/memserver's actors", name, where)
		}
	}
}

// checkCaptures reports every free variable of restricted type used
// inside the function literal but declared outside it.
func checkCaptures(pass *analysis.Pass, lit *ast.FuncLit, where string) {
	reported := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := pass.TypesInfo.Uses[id]
		if !ok {
			return true
		}
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() || reported[v] {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true // declared inside the literal: fresh per goroutine
		}
		if name, ok := restricted(v.Type()); ok {
			reported[v] = true
			pass.Reportf(id.Pos(), "%q (%s) is captured by %s: simulation state is single-writer per bank (membank contract); construct it inside the goroutine or go through internal/memserver's actors", v.Name(), name, where)
		}
		return true
	})
}

// restricted reports whether t is (or contains, through pointers,
// slices, arrays, maps or channels) a named struct or interface type
// from a simulation-state package.
func restricted(t types.Type) (string, bool) {
	for depth := 0; t != nil && depth < 10; depth++ {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Map:
			t = u.Elem()
		case *types.Chan:
			t = u.Elem()
		case *types.Named:
			obj := u.Obj()
			if obj.Pkg() != nil && statePkgs[obj.Pkg().Path()] {
				switch u.Underlying().(type) {
				case *types.Struct, *types.Interface:
					return obj.Pkg().Name() + "." + obj.Name(), true
				}
			}
			return "", false
		case *types.Alias:
			t = types.Unalias(u)
		default:
			return "", false
		}
	}
	return "", false
}
