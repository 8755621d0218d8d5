package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one parsed and type-checked package ready for analysis.
type Package struct {
	Path      string
	Dir       string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
	// FactsOnly marks a dependency loaded solely so fact-producing
	// analyzers can observe it: it contributes facts to the store but
	// no diagnostics (mirroring the vet protocol's VetxOnly mode).
	FactsOnly bool
}

// listedPackage is the subset of `go list -json` output Load uses.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// goList runs `go list -e -json -export -deps` in dir over the given
// patterns and decodes the package stream. Export data for every
// listed package comes from the build cache, so Load can type-check
// against compiled imports without network access or any dependency
// beyond the go toolchain itself.
func goList(dir string, patterns []string) ([]listedPackage, error) {
	args := append([]string{"list", "-e", "-json", "-export", "-deps", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter returns a types importer that resolves import paths
// through compiled export data files (import path → file).
func exportImporter(fset *token.FileSet, exports func(path string) (string, bool)) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports(path)
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
}

// typecheck parses the named files and type-checks them as the package
// importPath, resolving imports through imp.
func typecheck(fset *token.FileSet, imp types.Importer, importPath, dir string, goFiles []string) (*Package, error) {
	var files []*ast.File
	for _, name := range goFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, err
	}
	return &Package{Path: importPath, Dir: dir, Fset: fset, Files: files, Types: tpkg, TypesInfo: info}, nil
}

// Load type-checks the non-test compilation of every package matched by
// patterns (relative to dir, e.g. "./...") and returns them in
// dependency order (imports before importers — the order `go list
// -deps` emits), so facts computed for a dependency are in the store by
// the time its dependents are analyzed. It shells out to `go list
// -export` once, so the standard library arrives as compiled export
// data; matched packages are parsed from source, and unmatched
// in-module dependencies (reachable when patterns name a subset of the
// module) are parsed too but marked FactsOnly — they contribute facts,
// not diagnostics.
func Load(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(listed))
	var broken []string
	for _, p := range listed {
		if p.Error != nil {
			broken = append(broken, fmt.Sprintf("%s: %s", p.ImportPath, p.Error.Err))
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	if len(broken) > 0 {
		return nil, fmt.Errorf("cannot load:\n  %s", strings.Join(broken, "\n  "))
	}

	fset := token.NewFileSet()
	imp := exportImporter(fset, func(path string) (string, bool) {
		file, ok := exports[path]
		return file, ok
	})
	var out []*Package
	for _, p := range listed {
		if p.Standard || len(p.GoFiles) == 0 {
			continue
		}
		files := make([]string, len(p.GoFiles))
		for i, name := range p.GoFiles {
			files[i] = filepath.Join(p.Dir, name)
		}
		pkg, err := typecheck(fset, imp, p.ImportPath, p.Dir, files)
		if err != nil {
			return nil, fmt.Errorf("typecheck %s: %w", p.ImportPath, err)
		}
		pkg.FactsOnly = p.DepOnly
		out = append(out, pkg)
	}
	return out, nil
}

// LoadFiles type-checks a single compilation from an explicit file
// list, resolving every import through the exports lookup (import path
// → export data file). This is the loader behind the `go vet -vettool`
// protocol, where cmd/go has already compiled the dependency graph and
// hands us the export file of each import.
func LoadFiles(importPath, dir string, goFiles []string, exports func(path string) (string, bool)) (*Package, error) {
	fset := token.NewFileSet()
	return typecheck(fset, exportImporter(fset, exports), importPath, dir, goFiles)
}
