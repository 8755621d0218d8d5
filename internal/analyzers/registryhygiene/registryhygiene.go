// Package registryhygiene mechanizes the PR 6 plugin-registry
// contract:
//
//   - Registrations (registry.RegisterScheme / RegisterAttack /
//     RegisterModel / RegisterAccelerator) happen only in a file named
//     register.go, inside init() — one greppable, reviewable place per
//     plugin package.
//   - registry.Scheme / registry.Attack literals appear only in
//     register.go: registration is the sole sanctioned construction
//     site, so nothing outside the registry composes plugin entries by
//     hand.
//   - internal/plugins is complete and minimal: every in-module
//     package with a register.go is reachable from its blank imports
//     (either imported by plugins, or — like internal/experiments,
//     which imports plugins itself and therefore cannot be imported
//     back — importing plugins on its own), and every blank import
//     actually registers something, verified through the
//     RegistersPlugins package fact.
//
// Calls to methods on a *registry.Registry value other than the
// package-level Default helpers are not restricted — tests and
// tournament harnesses build private registries freely.
//
// Whether an entry's capability flags match its constructors is not
// checked here: registry.RegisterScheme and RegisterAttack panic on
// every mismatch at init, and each plugin package's own tests run its
// register.go.
package registryhygiene

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"securityrbsg/internal/analyzers/analysis"
)

// RegistersPlugins marks a package that performs at least one Default-
// registry registration, so the plugins package can verify its blank
// imports pull real registrations in.
type RegistersPlugins struct{}

func (*RegistersPlugins) AFact() {}

func (*RegistersPlugins) String() string { return "registers-plugins" }

func init() { analysis.RegisterFact(&RegistersPlugins{}) }

// Analyzer is the registryhygiene pass.
var Analyzer = &analysis.Analyzer{
	Name:      "registryhygiene",
	Doc:       "plugin registrations live in register.go init() and stay reachable from internal/plugins",
	FactTypes: []analysis.Fact{&RegistersPlugins{}},
	Run:       run,
}

const (
	registryPath = "securityrbsg/internal/registry"
	pluginsPath  = "securityrbsg/internal/plugins"
	modulePath   = "securityrbsg"
)

// registerFuncs are the package-level Default-registry helpers.
var registerFuncs = map[string]bool{
	"RegisterScheme":      true,
	"RegisterAttack":      true,
	"RegisterModel":       true,
	"RegisterAccelerator": true,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Path() == registryPath {
		return nil // the registry constructs its own entries (builtin.go)
	}
	registers := false
	for _, file := range pass.Files {
		base := filepath.Base(pass.Fset.Position(file.Pos()).Filename)
		inRegisterFile := base == "register.go"
		for _, decl := range file.Decls {
			fd, isFunc := decl.(*ast.FuncDecl)
			inInit := isFunc && fd.Recv == nil && fd.Name.Name == "init"
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					name := registryHelperCall(pass, n)
					if name == "" {
						return true
					}
					registers = true
					if pass.Allowed(n.Pos()) {
						return true
					}
					if !inRegisterFile {
						pass.Reportf(n.Pos(), "registry.%s outside register.go: registrations live in the package's register.go so the plugin surface stays greppable", name)
					}
					if !inInit {
						pass.Reportf(n.Pos(), "registry.%s outside init(): registrations run once at link-up, not from runtime code paths", name)
					}
				case *ast.CompositeLit:
					kind := entryLiteral(pass, n)
					if kind == "" || inRegisterFile || pass.Allowed(n.Pos()) {
						return true
					}
					pass.Reportf(n.Pos(), "registry.%s literal outside register.go: registration is the only sanctioned construction site for plugin entries", kind)
				}
				return true
			})
		}
	}
	if registers {
		pass.ExportPackageFact(&RegistersPlugins{})
	}
	if pass.Pkg.Path() == pluginsPath {
		checkPlugins(pass)
	}
	return nil
}

// registryHelperCall returns the helper name ("RegisterScheme", ...)
// if call invokes one of the registry package's Default-registry
// functions, "" otherwise.
func registryHelperCall(pass *analysis.Pass, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != registryPath {
		return ""
	}
	if sig, _ := fn.Type().(*types.Signature); sig != nil && sig.Recv() != nil {
		return "" // Registry method on a private registry: unrestricted
	}
	if !registerFuncs[fn.Name()] {
		return ""
	}
	return fn.Name()
}

// entryLiteral reports whether lit composes a registry.Scheme or
// registry.Attack value, returning the type name.
func entryLiteral(pass *analysis.Pass, lit *ast.CompositeLit) string {
	t := pass.TypeOf(lit)
	if t == nil {
		return ""
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != registryPath {
		return ""
	}
	switch named.Obj().Name() {
	case "Scheme", "Attack":
		return named.Obj().Name()
	}
	return ""
}

// checkPlugins runs the two whole-module checks from the plugins
// package's vantage point: every blank import registers something
// (via the RegistersPlugins fact), and every in-module register.go is
// reachable from plugins' imports.
func checkPlugins(pass *analysis.Pass) {
	blank := map[string]token.Pos{}
	for _, file := range pass.Files {
		for _, spec := range file.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err != nil || spec.Name == nil || spec.Name.Name != "_" {
				continue
			}
			if path != modulePath && !strings.HasPrefix(path, modulePath+"/") {
				continue
			}
			blank[path] = spec.Pos()
			if pass.SeenPackage(path) && !pass.ImportPackageFact(path, &RegistersPlugins{}) && !pass.Allowed(spec.Pos()) {
				pass.Reportf(spec.Pos(), "blank import of %s, which performs no registry registrations", path)
			}
		}
	}

	// Filesystem completeness: internal/<pkg>/register.go implies the
	// package is linked into the registry — blank-imported here, or
	// (when it imports plugins itself and an import back would cycle)
	// pulling plugins in on its own.
	internalDir := filepath.Dir(pass.Dir)
	entries, err := os.ReadDir(internalDir)
	if err != nil {
		return // fixture layouts without a scannable tree
	}
	var anchor token.Pos
	if len(pass.Files) > 0 {
		anchor = pass.Files[0].Name.Pos()
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if _, err := os.Stat(filepath.Join(internalDir, e.Name(), "register.go")); err != nil {
			continue
		}
		path := modulePath + "/internal/" + e.Name()
		if path == pass.Pkg.Path() {
			continue
		}
		if _, ok := blank[path]; ok {
			continue
		}
		if importsPlugins(filepath.Join(internalDir, e.Name())) {
			continue
		}
		if !pass.Allowed(anchor) {
			pass.Reportf(anchor, "package %s has a register.go but is not reachable from internal/plugins (add a blank import here, or import plugins from it)", path)
		}
	}
}

// importsPlugins reports whether any non-test file in dir imports the
// plugins package (the experiments-style escape from the import cycle).
func importsPlugins(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(dir, name), nil, parser.ImportsOnly)
		if err != nil {
			continue
		}
		for _, spec := range f.Imports {
			if path, err := strconv.Unquote(spec.Path.Value); err == nil && path == pluginsPath {
				return true
			}
		}
	}
	return false
}
