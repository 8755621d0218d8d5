// Command rbsglint runs the repo's custom analyzer suite — the
// mechanized determinism, bank-isolation, panic-policy, hot-path
// allocation and registry-hygiene contracts.
//
// Standalone:
//
//	go run ./cmd/rbsglint [-out FILE] ./...
//
// It prints findings to stderr and exits 0 when the tree is clean, 2
// when diagnostics were reported, and 1 on load/internal errors
// (including bad flags). -out FILE also writes the findings as a JSON
// report (always written, an empty array when clean — CI uploads it as
// an artifact).
//
// The binary also speaks `go vet`'s vettool protocol, so the same
// checks compose with the rest of vet (`make lint` runs both modes):
//
//	go build -o bin/rbsglint ./cmd/rbsglint
//	go vet -vettool=$PWD/bin/rbsglint ./...
//
// In that mode go vet invokes the tool once per package with a .cfg
// file describing the compilation (sources plus export data for every
// import), which is exactly what the standalone loader reconstructs
// via `go list -export`. Cross-package facts ride the same protocol:
// each invocation decodes the .vetx files of its dependencies
// (cfg.PackageVetx), runs the suite — facts only for dependency
// compilations (cfg.VetxOnly) — and serializes its own facts to
// cfg.VetxOutput for cmd/go to hand to dependents.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"securityrbsg/internal/analyzers"
	"securityrbsg/internal/analyzers/analysis"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	// `go vet -vettool` handshake: -V=full must print a stable line
	// identifying the tool so cmd/go can cache results.
	if len(args) == 1 && strings.HasPrefix(args[0], "-V") {
		printVersion()
		return 0
	}
	// `go vet` probes the tool's analyzer flags; we expose none.
	if len(args) == 1 && args[0] == "-flags" {
		fmt.Println("[]")
		return 0
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		return runVet(args[0])
	}

	fs := flag.NewFlagSet("rbsglint", flag.ContinueOnError)
	outPath := fs.String("out", "", "write diagnostics as a JSON report to this file (empty array when clean)")
	if err := fs.Parse(args); err != nil {
		return 1 // usage problems are driver errors, not violations
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rbsglint:", err)
		return 1
	}
	diags, err := analysis.Run(pkgs, analyzers.All())
	if err != nil {
		fmt.Fprintln(os.Stderr, "rbsglint:", err)
		return 1
	}
	if *outPath != "" {
		if err := writeReport(*outPath, diags); err != nil {
			fmt.Fprintln(os.Stderr, "rbsglint:", err)
			return 1
		}
	}
	if len(diags) == 0 {
		return 0
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	fmt.Fprintf(os.Stderr, "rbsglint: %d violation(s)\n", len(diags))
	return 2
}

// writeReport persists the findings as a JSON array — present (and
// empty) even for a clean run, so CI always has an artifact to upload.
func writeReport(path string, diags []analysis.Diagnostic) error {
	if diags == nil {
		diags = []analysis.Diagnostic{}
	}
	data, err := json.MarshalIndent(diags, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o666)
}

// printVersion answers -V=full with a content hash of the executable,
// so go vet's result cache invalidates when the tool changes.
func printVersion() {
	id := "unknown"
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			h := sha256.New()
			io.Copy(h, f)
			f.Close()
			id = fmt.Sprintf("%x", h.Sum(nil))[:20]
		}
	}
	fmt.Printf("rbsglint version devel buildID=%s\n", id)
}

// vetConfig is the package description go vet writes for a vettool (the
// fields cmd/go's unitchecker protocol defines; unused ones omitted).
type vetConfig struct {
	ID                        string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// runVet analyzes one package as directed by a go vet .cfg file.
func runVet(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rbsglint:", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "rbsglint: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	facts := analysis.NewFacts()

	// Test compilations (external pkg_test packages, "pkg [pkg.test]"
	// augmented variants, and the generated .test main) are exempt: the
	// contracts govern shipped code, and tests legitimately panic and
	// read the wall clock. The standalone loader matches this by
	// analyzing only non-test compilations. The protocol still wants a
	// .vetx file; an empty fact set is a valid payload.
	if strings.HasSuffix(cfg.ImportPath, "_test") ||
		strings.HasSuffix(cfg.ImportPath, ".test") ||
		strings.Contains(cfg.ImportPath, " [") {
		return writeVetx(&cfg, facts)
	}

	// Seed the store with the dependencies' facts. cmd/go hands us one
	// .vetx per import it ran the tool on; decoding marks the package as
	// analyzed even when the payload is empty, which is how analyzers
	// tell "analyzed, no facts" from "never analyzed".
	for path, file := range cfg.PackageVetx {
		payload, err := os.ReadFile(file)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rbsglint: reading facts of %s: %v\n", path, err)
			return 1
		}
		if err := facts.DecodePackage(path, payload); err != nil {
			fmt.Fprintln(os.Stderr, "rbsglint:", err)
			return 1
		}
	}

	pkg, err := loadVetPackage(&cfg)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "rbsglint: %s: %v\n", cfg.ImportPath, err)
		return 1
	}
	// Dependency compilations run for their facts only: analyzers still
	// execute (dependents need the facts), diagnostics are withheld (the
	// dependency gets its own non-VetxOnly compilation).
	pkg.FactsOnly = cfg.VetxOnly
	diags, err := analysis.RunFacts([]*analysis.Package{pkg}, analyzers.All(), facts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rbsglint:", err)
		return 1
	}
	if code := writeVetx(&cfg, facts); code != 0 {
		return code
	}
	if len(diags) == 0 {
		return 0
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	return 2
}

// writeVetx serializes the analyzed package's facts to cfg.VetxOutput
// (when the protocol asked for one).
func writeVetx(cfg *vetConfig, facts *analysis.Facts) int {
	if cfg.VetxOutput == "" {
		return 0
	}
	payload, err := facts.EncodePackage(cfg.ImportPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rbsglint:", err)
		return 1
	}
	if err := os.WriteFile(cfg.VetxOutput, payload, 0o666); err != nil {
		fmt.Fprintln(os.Stderr, "rbsglint:", err)
		return 1
	}
	return 0
}

// loadVetPackage type-checks the compilation described by a vet config:
// the listed sources against the export data go vet already resolved
// for every import. Import paths spelled in source are canonicalized
// through cfg.ImportMap before the export lookup.
func loadVetPackage(cfg *vetConfig) (*analysis.Package, error) {
	exports := func(path string) (string, bool) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		return file, ok
	}
	// go vet hands absolute file paths; resolve relative ones (seen
	// with older toolchains) against the package directory. In-package
	// _test.go files (the "pkg [pkg.test]" augmented compilation) are
	// dropped: the contracts govern shipped code only.
	var files []string
	for _, f := range cfg.GoFiles {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		if !filepath.IsAbs(f) {
			f = filepath.Join(cfg.Dir, f)
		}
		files = append(files, f)
	}
	return analysis.LoadFiles(cfg.ImportPath, cfg.Dir, files, exports)
}
