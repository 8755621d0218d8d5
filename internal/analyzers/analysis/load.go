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
	// FactsOnly marks an in-module dependency that no pattern named,
	// loaded so fact-producing analyzers can observe it: it contributes
	// facts to the store but no diagnostics.
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

// typecheck parses the package's listed files and type-checks them,
// resolving imports through imp.
func typecheck(fset *token.FileSet, imp types.Importer, p listedPackage) (*Package, error) {
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
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
	tpkg, err := conf.Check(p.ImportPath, fset, files, info)
	if err != nil {
		return nil, err
	}
	return &Package{
		Path: p.ImportPath, Dir: p.Dir, Fset: fset, Files: files,
		Types: tpkg, TypesInfo: info, FactsOnly: p.DepOnly,
	}, nil
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
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	var out []*Package
	for _, p := range listed {
		if p.Standard || len(p.GoFiles) == 0 {
			continue
		}
		pkg, err := typecheck(fset, imp, p)
		if err != nil {
			return nil, fmt.Errorf("typecheck %s: %w", p.ImportPath, err)
		}
		out = append(out, pkg)
	}
	return out, nil
}
