// Command rbsglint runs the repo's custom analyzer suite: the
// mechanized determinism, bank-isolation, panic-policy and hot-path
// allocation contracts (see DESIGN.md "Mechanized invariants").
//
// Usage:
//
//	rbsglint [-out FILE] [patterns]
//
// The patterns (default ./...) name the packages to check. Every
// in-module package they import is type-checked first in the same
// process and analyzed for its facts alone, so a hot path's
// cross-package callees are judged without being reported themselves.
//
// It prints findings to stderr and exits 0 when the tree is clean, 2
// when diagnostics were reported, and 1 on load/internal errors
// (including bad flags). -out FILE also writes the findings as a JSON
// report (always written, an empty array when clean — CI uploads it as
// an artifact).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"securityrbsg/internal/analyzers"
	"securityrbsg/internal/analyzers/analysis"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
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
	diags, err := analysis.Run(pkgs, analyzers.All(), analysis.Facts{})
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
