// Package analysis is a minimal, dependency-free re-implementation of
// the golang.org/x/tools/go/analysis surface the rbsglint suite needs.
//
// The repo's invariants (bit-identical simulation, single-writer bank
// executors, panic-free data paths, alloc-free hot paths, registry
// hygiene) are enforced by custom analyzers, but the module
// deliberately has no third-party dependencies, so instead of importing
// x/tools this package provides the same shape — an Analyzer with a Run
// function over a type-checked Pass — on top of the standard library's
// go/ast and go/types.
//
// Three things differ from x/tools by design:
//
//   - Suppression is first-class. A diagnostic is silenced only by a
//     //rbsglint:allow <analyzer> -- <reason> comment on the same line
//     or the line directly above, and the reason is mandatory: a
//     directive without one is itself reported and suppresses nothing.
//     A directive naming an analyzer that does not exist in the running
//     suite is a stale suppression and is reported too.
//   - Facts (see facts.go) are keyed by stable object names rather than
//     objectpath encodings: only package-level objects and methods of
//     named types carry facts, which is all the suite needs.
//   - Packages are processed in dependency order, so a pass may read
//     facts exported by its imports in the same run.
//
// There are two loaders, one per driver protocol. Load runs `go list
// -export -deps` over a module; it serves `rbsglint ./...` and the
// analysistest fixtures, whose roots are modules of their own.
// LoadFiles type-checks the one compilation a `go vet -vettool` config
// describes.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in output and in allow directives.
	Name string
	// Doc is a one-paragraph description of the contract it enforces.
	Doc string
	// FactTypes lists the fact types the analyzer may export; each must
	// also be registered with RegisterFact. Analyzers with fact types
	// run over facts-only packages (dependencies of the analysis
	// targets) so their facts are available to dependents.
	FactTypes []Fact
	// Run reports diagnostics for one package through the pass.
	Run func(*Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Dir is the package's source directory (for checks that consult
	// the module layout, e.g. registryhygiene's register.go scan).
	Dir string

	facts *Facts
	dirs  directiveSet
	diags []Diagnostic
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	// Analyzer is the name of the pass that produced the finding
	// ("rbsglint" for framework-level findings such as malformed
	// directives).
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Allowed reports whether a well-formed //rbsglint:allow directive for
// this pass's analyzer covers pos (same line or the line above).
// Analyzers that compute facts consult it so that an allowed construct
// does not poison the fact — otherwise every caller of the annotated
// function would need its own directive, cascading one justified
// suppression through the call graph.
func (p *Pass) Allowed(pos token.Pos) bool {
	return p.dirs.suppresses(p.Analyzer.Name, p.Fset.Position(pos))
}

// TypeOf returns the type of expression e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if tv, ok := p.TypesInfo.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.TypesInfo.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// Run applies every analyzer to every package with a fresh fact store.
// See RunFacts.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	return RunFacts(pkgs, analyzers, NewFacts())
}

// RunFacts applies every analyzer to every package, resolves allow
// directives, and returns the surviving diagnostics sorted by position.
// Packages must arrive in dependency order (imports before importers)
// so facts flow forward; facts may be pre-seeded (the vet protocol's
// .vetx files) through the store. Facts-only packages contribute facts
// but no diagnostics. Framework findings — malformed directives, and
// directives naming analyzers absent from the running suite (stale
// suppressions) — are included and cannot be suppressed.
func RunFacts(pkgs []*Package, analyzers []*Analyzer, facts *Facts) ([]Diagnostic, error) {
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var out []Diagnostic
	for _, pkg := range pkgs {
		facts.addPackage(pkg.Path)
		dirs, uses, malformed := parseDirectives(pkg.Fset, pkg.Files)
		if !pkg.FactsOnly {
			out = append(out, malformed...)
			for _, u := range uses {
				if !known[u.analyzer] {
					out = append(out, Diagnostic{
						Analyzer: "rbsglint",
						Pos:      pkg.Fset.Position(u.pos),
						Message: fmt.Sprintf("stale suppression: directive names analyzer %q, which is not in the running suite (%s)",
							u.analyzer, strings.Join(sortedNames(known), ", ")),
					})
				}
			}
		}
		for _, a := range analyzers {
			if pkg.FactsOnly && len(a.FactTypes) == 0 {
				continue // nothing a dependent could observe
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				Dir:       pkg.Dir,
				facts:     facts,
				dirs:      dirs,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
			if pkg.FactsOnly {
				continue
			}
			for _, d := range pass.diags {
				if !dirs.suppresses(a.Name, d.Pos) {
					out = append(out, d)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}

func sortedNames(set map[string]bool) []string {
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// FuncMarked reports whether decl's doc comment (or a comment on the
// func line) carries the //rbsglint:<marker> annotation — the mechanism
// hotpathalloc uses to designate hot paths ("hotpath").
func FuncMarked(files []*ast.File, fset *token.FileSet, decl *ast.FuncDecl, marker string) bool {
	want := "//rbsglint:" + marker
	if decl.Doc != nil {
		for _, c := range decl.Doc.List {
			if text, ok := strings.CutPrefix(c.Text, want); ok && (text == "" || text[0] == ' ' || text[0] == '\t') {
				return true
			}
		}
	}
	// Same-line trailing comment: //rbsglint:hotpath after the signature.
	declLine := fset.Position(decl.Pos()).Line
	for _, f := range files {
		if fset.Position(f.Pos()).Filename != fset.Position(decl.Pos()).Filename {
			continue
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if fset.Position(c.Pos()).Line != declLine {
					continue
				}
				if text, ok := strings.CutPrefix(c.Text, want); ok && (text == "" || text[0] == ' ' || text[0] == '\t') {
					return true
				}
			}
		}
	}
	return false
}
