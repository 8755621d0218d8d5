// Package analysistest runs an analyzer over golden fixture packages
// and checks its diagnostics against // want annotations, mirroring
// the x/tools package of the same name (which the module deliberately
// does not depend on).
//
// Each fixture root, testdata/src/<module>/ next to the analyzer's
// test, is a module with its own go.mod, so its packages load through
// analysis.Load — the `go list -export -deps` loader `rbsglint ./...`
// runs — and may stub real module packages such as
// securityrbsg/internal/membank. Every line that should be flagged
// carries a comment of the form
//
//	expr // want `regexp` `another regexp`
//
// with one backquoted (or double-quoted) regexp per expected
// diagnostic on that line. The harness runs the full framework
// pipeline — including //rbsglint:allow suppression — so fixtures can
// also prove that a directive with a reason silences a finding and
// that one without a reason does not.
//
// Fact-producing analyzers are tested with named expectations:
//
//	func Helper() {} // want Helper:`allocfree`
//
// asserts that after the run the fact store holds a fact for the
// object keyed "Helper" in the enclosing fixture package whose
// String() matches the regexp. Method facts use the "Recv.Name" key
// (e.g. `// want Buffer.Grow:"allocfree"`). Fact expectations and
// diagnostic expectations can share one want clause.
package analysistest

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"securityrbsg/internal/analyzers/analysis"
)

// wantRe matches the trailing want clause of a fixture line.
var wantRe = regexp.MustCompile(`// want (.*)$`)

// expectRe matches one expectation: an optional `Object:` or
// `Recv.Name:` prefix (a fact assertion) followed by a backquoted or
// double-quoted regexp.
var expectRe = regexp.MustCompile("(?:([A-Za-z_][A-Za-z0-9_]*(?:\\.[A-Za-z_][A-Za-z0-9_]*)?):)?(`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\")")

// expectation is one parsed want entry. obj == "" means a diagnostic
// expectation; otherwise it names the fact key the assertion is about.
type expectation struct {
	obj string
	re  *regexp.Regexp
}

// Run loads the fixture packages at the given import paths from their
// module under testdata/src (named by the paths' first element),
// applies the analyzer through the framework (directive suppression
// included), and fails the test on any mismatch between diagnostics
// and // want annotations. Fact expectations are checked against the
// run's fact store. Dependencies the paths do not name are analyzed
// for their facts only, so their wants are not checked.
func Run(t *testing.T, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	module, _, _ := strings.Cut(pkgPaths[0], "/")
	pkgs, err := analysis.Load(filepath.Join("testdata", "src", module), pkgPaths...)
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	facts := analysis.Facts{}
	diags, err := analysis.Run(pkgs, []*analysis.Analyzer{a}, facts)
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	factStrings := map[analysis.FactKey][]string{}
	for k, f := range facts {
		k.Type = "" // wants name the package and object, not the fact type
		factStrings[k] = append(factStrings[k], fmt.Sprint(f))
	}

	// Group surviving diagnostics by file:line.
	type key struct {
		file string
		line int
	}
	got := map[key][]analysis.Diagnostic{}
	for _, d := range diags {
		k := key{d.Pos.Filename, d.Pos.Line}
		got[k] = append(got[k], d)
	}

	// Walk every fixture file of the analyzed packages and pair wants
	// with diagnostics and facts.
	for _, pkg := range pkgs {
		if pkg.FactsOnly {
			continue
		}
		entries, err := os.ReadDir(pkg.Dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			path := filepath.Join(pkg.Dir, e.Name())
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(data), "\n") {
				k := key{path, i + 1}
				wants := parseWants(t, path, i+1, line)
				remaining := got[k]
				delete(got, k)
				for _, w := range wants {
					if w.obj != "" {
						matchFact(t, path, i+1, factStrings[analysis.FactKey{Pkg: pkg.Path, Obj: w.obj}], w)
						continue
					}
					idx := -1
					for j, d := range remaining {
						if w.re.MatchString(d.Message) {
							idx = j
							break
						}
					}
					if idx < 0 {
						t.Errorf("%s:%d: no diagnostic matching %q (have %s)", path, i+1, w.re, messages(remaining))
						continue
					}
					remaining = append(remaining[:idx], remaining[idx+1:]...)
				}
				for _, d := range remaining {
					t.Errorf("%s:%d: unexpected diagnostic: %s: %s", path, i+1, d.Analyzer, d.Message)
				}
			}
		}
	}
	// Diagnostics in files we never walked (shouldn't happen).
	for k, ds := range got {
		t.Errorf("%s:%d: diagnostics outside fixture files: %s", k.file, k.line, messages(ds))
	}
}

// matchFact checks one fact expectation against the facts recorded for
// the object it names in the fixture package owning the annotated line.
func matchFact(t *testing.T, file string, lineno int, have []string, w expectation) {
	t.Helper()
	for _, s := range have {
		if w.re.MatchString(s) {
			return
		}
	}
	if len(have) == 0 {
		t.Errorf("%s:%d: no fact recorded for object %q", file, lineno, w.obj)
		return
	}
	t.Errorf("%s:%d: no fact on %q matching %q (have %q)", file, lineno, w.obj, w.re, have)
}

// parseWants extracts the expectations from one line.
func parseWants(t *testing.T, file string, lineno int, line string) []expectation {
	t.Helper()
	m := wantRe.FindStringSubmatch(line)
	if m == nil {
		return nil
	}
	var wants []expectation
	for _, q := range expectRe.FindAllStringSubmatch(m[1], -1) {
		var pat string
		if strings.HasPrefix(q[2], "`") {
			pat = strings.Trim(q[2], "`")
		} else {
			var err error
			pat, err = strconv.Unquote(q[2])
			if err != nil {
				t.Fatalf("%s:%d: bad want expectation %s: %v", file, lineno, q[2], err)
			}
		}
		re, err := regexp.Compile(pat)
		if err != nil {
			t.Fatalf("%s:%d: bad want regexp %q: %v", file, lineno, pat, err)
		}
		wants = append(wants, expectation{obj: q[1], re: re})
	}
	if len(wants) == 0 {
		t.Fatalf("%s:%d: // want clause with no expectations", file, lineno)
	}
	return wants
}

func messages(ds []analysis.Diagnostic) string {
	if len(ds) == 0 {
		return "none"
	}
	var parts []string
	for _, d := range ds {
		parts = append(parts, fmt.Sprintf("%q", d.Message))
	}
	return strings.Join(parts, ", ")
}
