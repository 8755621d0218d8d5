// Package hotpathalloc enforces the PR 4 hot-path allocation contract:
// functions annotated //rbsglint:hotpath (the memserver executor loop, the
// binary wire's connection loop, codec and frame handlers, the exactsim
// sweep kernels, the seclevel adaptive apply path) and everything they
// reach through static in-module calls must not allocate per operation.
//
// The analyzer computes an AllocProfile fact for every package-level
// function and method: alloc-free, or allocating with a human-readable
// why-chain. Facts flow along the import graph (dependencies are
// analyzed first), so a hot-path root in internal/memserver can see
// that a helper in internal/core allocates three calls deep.
//
// Allocating constructs: make, new, &T{} and slice/map composite
// literals, string concatenation, string<->[]byte/[]rune conversions,
// func literals, go statements, and calls to functions that are not
// provably alloc-free (an explicit stdlib safe list covers the
// arithmetic/atomic/append-style helpers the hot paths rely on; every
// other out-of-module call is treated as allocating).
//
// Exemptions keep the idiomatic amortized patterns clean without
// directives:
//
//   - cold paths: constructs inside an if-body that terminates in
//     return or panic (error handling) are ignored;
//   - amortized growth: constructs inside an if-body whose condition
//     consults cap() or len() (the pool-refill idiom) are ignored;
//   - panic arguments: panics are governed by panicpolicy, not here;
//   - append is never flagged — hot paths append into pooled,
//     pre-sized buffers, and amortized growth is the accepted idiom.
//
// Dynamic dispatch (interface methods, func values) is trusted and
// terminates the analysis chain; that blind spot is deliberate, since
// the hot paths are built from static calls. A //rbsglint:allow
// hotpathalloc directive on the offending line excludes the construct
// from both the diagnostics and the fact, so one justified suppression
// does not cascade to every caller.
package hotpathalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"securityrbsg/internal/analyzers/analysis"
)

// AllocProfile is the per-function fact: whether the function (and
// everything it reaches through static calls) is allocation-free, and
// if not, why.
type AllocProfile struct {
	Free bool
	Why  string
}

func (*AllocProfile) AFact() {}

func (f *AllocProfile) String() string {
	if f.Free {
		return "allocfree"
	}
	return "allocates: " + f.Why
}

// Analyzer is the hotpathalloc pass.
var Analyzer = &analysis.Analyzer{
	Name:      "hotpathalloc",
	Doc:       "hot-path functions (//rbsglint:hotpath) and their static callees must not allocate",
	FactTypes: []analysis.Fact{&AllocProfile{}},
	Run:       run,
}

// modulePrefix scopes "in-module" resolution: callees under this path
// participate in fact propagation, everything else is stdlib.
const modulePrefix = "securityrbsg"

// safePackages lists stdlib packages whose exported functions never
// allocate on the paths the hot code uses.
var safePackages = map[string]bool{
	"sync":            true,
	"sync/atomic":     true,
	"math":            true,
	"math/bits":       true,
	"encoding/binary": true,
	"unicode/utf8":    true,
}

// safePrefixes lists full-name prefixes of individual stdlib functions
// that are alloc-free by contract (strconv's Append* family writes into
// a caller-provided buffer; the Parse family allocates only on the
// error path).
var safePrefixes = []string{
	"strconv.Append",
	"strconv.Parse",
	"strconv.Atoi",
}

// safeFuncs lists individual stdlib functions (by types.Func.FullName)
// that are alloc-free.
var safeFuncs = map[string]bool{
	"slices.Sort": true,
}

// reason is one allocating construct (or allocating call) found in a
// function body.
type reason struct {
	pos token.Pos
	why string
}

// funcInfo is the per-function analysis state for the fixpoint.
type funcInfo struct {
	decl    *ast.FuncDecl
	obj     *types.Func
	marked  bool       // carries //rbsglint:hotpath
	reasons []reason   // immediate allocating constructs + resolved calls
	calls   []sameCall // unresolved same-package calls (fixpoint edges)
	free    bool       // fixpoint result
	why     string     // first reason, for the exported fact
}

// sameCall is a call site into a function of the same package.
type sameCall struct {
	pos    token.Pos
	callee *types.Func
}

func run(pass *analysis.Pass) error {
	infos := map[*types.Func]*funcInfo{}
	var order []*funcInfo
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fi := &funcInfo{
				decl:   fd,
				obj:    obj,
				marked: analysis.FuncMarked(pass.Files, pass.Fset, fd, "hotpath"),
			}
			collect(pass, fi)
			infos[obj] = fi
			order = append(order, fi)
		}
	}

	// Least fixpoint: a function is free only if it has no immediate
	// reasons and every same-package callee is free. Functions start
	// non-free, so call cycles stay non-free (conservative).
	for {
		changed := false
		for _, fi := range order {
			if fi.free || len(fi.reasons) > 0 {
				continue
			}
			ok := true
			for _, c := range fi.calls {
				callee, known := infos[c.callee]
				if !known {
					// Bodyless same-package function (assembly or
					// generated): not provably free.
					ok = false
					break
				}
				if !callee.free {
					ok = false
					break
				}
			}
			if ok {
				fi.free = true
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	// Resolve why-chains for the non-free functions, export facts, and
	// report diagnostics inside hot-path roots.
	for _, fi := range order {
		if !fi.free {
			fillReasons(infos, fi, map[*funcInfo]bool{})
			fi.why = fi.reasons[0].why
		}
		pass.ExportObjectFact(fi.obj, &AllocProfile{Free: fi.free, Why: fi.why})
		if fi.marked {
			for _, r := range fi.reasons {
				pass.Reportf(r.pos, "hot path: %s", renderWhy(r.why))
			}
		}
	}

	// Hot roots whose only problems are same-package callees were
	// handled above (their reasons got populated). But a marked root
	// with immediate reasons may *also* call non-free same-package
	// helpers; report those call sites too.
	for _, fi := range order {
		if !fi.marked || fi.free || len(fi.reasons) == 0 {
			continue
		}
		for _, c := range fi.calls {
			callee, known := infos[c.callee]
			if known && !callee.free && !hasReasonAt(fi.reasons, c.pos) {
				pass.Reportf(c.pos, "hot path: %s", renderWhy(callChainWhy(c.callee, callee.why)))
			}
		}
	}
	return nil
}

// fillReasons resolves the why-chain for a non-free function whose
// non-freeness comes only from same-package calls, depth-first so the
// chain bottoms out at a concrete construct regardless of declaration
// order. The stack guards against recursion: a cycle member's why is
// the cycle itself.
func fillReasons(infos map[*types.Func]*funcInfo, fi *funcInfo, stack map[*funcInfo]bool) {
	if fi.free || len(fi.reasons) > 0 {
		return
	}
	stack[fi] = true
	defer delete(stack, fi)
	for _, c := range fi.calls {
		callee, known := infos[c.callee]
		if !known {
			fi.reasons = append(fi.reasons, reason{c.pos, fmt.Sprintf("calls %s, which has no body to analyze", c.callee.Name())})
			continue
		}
		if callee.free {
			continue
		}
		if stack[callee] {
			fi.reasons = append(fi.reasons, reason{c.pos, fmt.Sprintf("calls %s, which is recursive (cannot prove alloc-free)", calleeNameOf(c.callee))})
			continue
		}
		fillReasons(infos, callee, stack)
		why := "recursive call cycle (cannot prove alloc-free)"
		if len(callee.reasons) > 0 {
			why = callee.reasons[0].why
		}
		fi.reasons = append(fi.reasons, reason{c.pos, callChainWhy(c.callee, why)})
	}
	if len(fi.reasons) == 0 {
		fi.reasons = append(fi.reasons, reason{fi.decl.Pos(), "recursive call cycle (cannot prove alloc-free)"})
	}
}

// renderWhy turns a stored reason into diagnostic prose: call-chain
// reasons are already clauses, construct reasons get the verb.
func renderWhy(why string) string {
	if strings.HasPrefix(why, "calls ") || strings.HasPrefix(why, "recursive ") {
		return why
	}
	return why + " allocates"
}

func hasReasonAt(rs []reason, pos token.Pos) bool {
	for _, r := range rs {
		if r.pos == pos {
			return true
		}
	}
	return false
}

// callChainWhy builds the why string for a call to a non-free callee,
// truncating deep chains so facts stay readable. Construct reasons are
// stored as noun phrases ("make", "string concatenation"), so a
// one-hop chain reads "calls p.f, which allocates (make)"; deeper
// chains nest as "calls p.f, which calls q.g, ...".
func callChainWhy(callee *types.Func, calleeWhy string) string {
	var why string
	if strings.HasPrefix(calleeWhy, "calls ") || strings.HasPrefix(calleeWhy, "recursive ") {
		why = fmt.Sprintf("calls %s, which %s", calleeNameOf(callee), calleeWhy)
	} else {
		why = fmt.Sprintf("calls %s, which allocates (%s)", calleeNameOf(callee), calleeWhy)
	}
	if len(why) > 220 {
		why = why[:217] + "..."
	}
	return why
}

// calleeNameOf renders a callee compactly: pkg.Func or pkg.Recv.Method.
func calleeNameOf(fn *types.Func) string {
	name := fn.Name()
	if key, ok := analysis.ObjectKey(fn); ok {
		name = key
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + name
	}
	return name
}

// collect walks one function body recording allocating constructs and
// static call edges, applying the cold-path / amortized-growth / panic
// / allow-directive exemptions.
func collect(pass *analysis.Pass, fi *funcInfo) {
	exempt := exemptRanges(pass, fi.decl.Body)
	skip := func(pos token.Pos) bool {
		if pass.Allowed(pos) {
			return true
		}
		for _, r := range exempt {
			if pos >= r[0] && pos <= r[1] {
				return true
			}
		}
		return false
	}
	add := func(pos token.Pos, why string) {
		if !skip(pos) {
			fi.reasons = append(fi.reasons, reason{pos, why})
		}
	}

	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			add(n.Pos(), "go statement")
		case *ast.FuncLit:
			add(n.Pos(), "function literal")
			return false // its body runs elsewhere
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(pass.TypeOf(n)) {
				add(n.Pos(), "string concatenation")
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					add(n.Pos(), "address-of composite literal")
				}
			}
		case *ast.CompositeLit:
			t := pass.TypeOf(n)
			if t != nil {
				switch t.Underlying().(type) {
				case *types.Slice:
					add(n.Pos(), "slice literal")
				case *types.Map:
					add(n.Pos(), "map literal")
				}
			}
		case *ast.CallExpr:
			collectCall(pass, fi, n, add, skip)
		}
		return true
	})
}

// collectCall classifies one call expression. add already applies the
// exemptions; skip is the same filter, used for same-package call edges
// (a call on a cold path must not taint the caller either).
func collectCall(pass *analysis.Pass, fi *funcInfo, call *ast.CallExpr, add func(token.Pos, string), skip func(token.Pos) bool) {
	// Type conversions: string <-> []byte/[]rune copy.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			to, from := tv.Type, pass.TypeOf(call.Args[0])
			if conversionAllocates(to, from) {
				add(call.Pos(), fmt.Sprintf("conversion %s(%s)", to, from))
			}
		}
		return
	}

	// Builtins.
	if id := calleeIdent(call.Fun); id != nil {
		if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				add(call.Pos(), "make")
			case "new":
				add(call.Pos(), "new")
			case "print", "println":
				add(call.Pos(), b.Name())
			}
			return
		}
	}

	fn := staticCallee(pass.TypesInfo, call)
	if fn == nil {
		return // dynamic dispatch or func value: trusted, chain ends
	}
	pkg := fn.Pkg()
	if pkg == nil {
		return // universe scope (error.Error via embedding, etc.)
	}
	if pkg == pass.Pkg {
		if !skip(call.Pos()) {
			fi.calls = append(fi.calls, sameCall{call.Pos(), fn})
		}
		return
	}
	path := pkg.Path()
	if path == modulePrefix || strings.HasPrefix(path, modulePrefix+"/") {
		var prof AllocProfile
		switch {
		case !pass.ImportObjectFact(fn, &prof):
			// Load analyzes every in-module dependency first, so no
			// profile means a bodyless function.
			add(call.Pos(), fmt.Sprintf("calls %s, which has no alloc profile", calleeNameOf(fn)))
		case !prof.Free:
			add(call.Pos(), callChainWhy(fn, prof.Why))
		}
		return
	}
	// Out of module: safe list or deny.
	if safePackages[path] {
		return
	}
	full := fn.FullName()
	if safeFuncs[full] {
		return
	}
	for _, p := range safePrefixes {
		if strings.HasPrefix(full, p) {
			return
		}
	}
	add(call.Pos(), fmt.Sprintf("calls %s, which is not on the alloc-free safe list", full))
}

// staticCallee resolves a call to the *types.Func it statically
// invokes, or nil for dynamic dispatch (interface methods, func
// values) and non-function callees.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			fn, _ := sel.Obj().(*types.Func)
			if fn == nil {
				return nil
			}
			if types.IsInterface(recvType(fn)) {
				return nil // dynamic dispatch
			}
			return fn
		}
		// Qualified identifier: pkg.Func.
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

func recvType(fn *types.Func) types.Type {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return nil
	}
	return sig.Recv().Type()
}

func calleeIdent(fun ast.Expr) *ast.Ident {
	id, _ := ast.Unparen(fun).(*ast.Ident)
	return id
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// conversionAllocates reports whether a conversion from -> to copies
// its operand into fresh memory (string <-> []byte/[]rune).
func conversionAllocates(to, from types.Type) bool {
	if to == nil || from == nil {
		return false
	}
	return (isString(to) && isByteOrRuneSlice(from)) || (isByteOrRuneSlice(to) && isString(from))
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// exemptRanges returns the source ranges where allocating constructs
// are sanctioned without a directive: bodies of if statements that
// terminate in return/panic (cold error paths), bodies of if
// statements whose condition consults cap() or len() (the amortized
// pool-refill idiom), and panic call arguments.
func exemptRanges(pass *analysis.Pass, body *ast.BlockStmt) [][2]token.Pos {
	var out [][2]token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			if blockTerminates(pass, n.Body) || condConsultsCapLen(pass, n.Cond) {
				out = append(out, [2]token.Pos{n.Body.Pos(), n.Body.End()})
			}
		case *ast.CallExpr:
			if id := calleeIdent(n.Fun); id != nil {
				if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
					out = append(out, [2]token.Pos{n.Lparen, n.End()})
				}
			}
		}
		return true
	})
	return out
}

// blockTerminates reports whether a block's last statement is a
// return or a call to panic.
func blockTerminates(pass *analysis.Pass, b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id := calleeIdent(call.Fun); id != nil {
				if bi, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && bi.Name() == "panic" {
					return true
				}
			}
		}
	}
	return false
}

// condConsultsCapLen reports whether an if condition contains a call
// to the cap or len builtin — the shape of every amortized buffer
// refill in the tree (`if cap(buf) < n { buf = make(...) }`).
func condConsultsCapLen(pass *analysis.Pass, cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id := calleeIdent(call.Fun); id != nil {
			if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && (b.Name() == "cap" || b.Name() == "len") {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
