package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildDriver compiles the rbsglint binary once into a temp dir.
func buildDriver(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "rbsglint")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building driver: %v\n%s", err, out)
	}
	return bin
}

// writeModule materializes a file map as a throwaway module.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// runIn executes a command in dir, tolerating nonzero exits.
func runIn(t *testing.T, dir string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(args[0], args[1:]...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("running %v: %v\n%s", args, err, out)
	}
	return string(out), code
}

// TestSeededViolation proves the driver's exit-code contract end to
// end: a seeded wall-clock read fails the run (exit 2), and the clean
// package passes.
func TestSeededViolation(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess go builds; skipped in -short")
	}
	bin := buildDriver(t)
	mod := writeModule(t, map[string]string{
		"go.mod": "module scratch\n\ngo 1.22\n",
		"dirty/dirty.go": `package dirty

import "time"

// Stamp leaks the wall clock into a result.
func Stamp() int64 { return time.Now().UnixNano() }
`,
		"clean/clean.go": `package clean

// Add is free of environmental reads.
func Add(a, b int) int { return a + b }
`,
	})

	out, code := runIn(t, mod, bin, "./...")
	if code != 2 {
		t.Fatalf("standalone on dirty module: exit %d, want 2\n%s", code, out)
	}
	if !strings.Contains(out, "wall-clock read time.Now") {
		t.Errorf("standalone output missing diagnostic:\n%s", out)
	}

	out, code = runIn(t, mod, bin, "./clean")
	if code != 0 {
		t.Fatalf("standalone on clean package: exit %d, want 0\n%s", code, out)
	}
}

// contractModule writes a throwaway module that reuses the real module
// path, seeding one violation of the fact-based contract: a heap
// allocation in a //rbsglint:hotpath encode path, reachable only
// through a cross-package call — catching it requires enc's facts to
// reach batch's pass.
func contractModule(t *testing.T) string {
	t.Helper()
	return writeModule(t, map[string]string{
		"go.mod": "module securityrbsg\n\ngo 1.22\n",
		"internal/enc/enc.go": `package enc

// AppendFrame allocates a scratch header on every call.
func AppendFrame(b []byte, v uint64) []byte {
	hdr := make([]byte, 8)
	for i := range hdr {
		hdr[i] = byte(v >> (8 * uint(i)))
	}
	return append(b, hdr...)
}
`,
		"internal/batch/batch.go": `package batch

import "securityrbsg/internal/enc"

//rbsglint:hotpath
func Encode(out []byte, v uint64) []byte {
	return enc.AppendFrame(out, v)
}
`,
	})
}

// TestSeededContractViolations seeds one violation of the fact-based
// contract and requires exactly one finding, on stderr and in the -out
// report. The hot-path finding crosses a package boundary, so its
// presence proves facts flow from a dependency to its importer.
func TestSeededContractViolations(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess go builds; skipped in -short")
	}
	bin := buildDriver(t)
	mod := contractModule(t)

	const want = "hot path: calls enc.AppendFrame, which allocates (make)"

	report := filepath.Join(mod, "findings.json")
	out, code := runIn(t, mod, bin, "-out", report, "./...")
	if code != 2 {
		t.Fatalf("standalone: exit %d, want 2\n%s", code, out)
	}
	if n := strings.Count(out, want); n != 1 {
		t.Errorf("standalone: %d findings matching %q, want 1\n%s", n, want, out)
	}
	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatalf("reading -out report: %v", err)
	}
	if n := strings.Count(string(data), want); n != 1 {
		t.Errorf("-out report: %d entries matching %q, want 1\n%s", n, want, data)
	}
}

// TestExitCodes pins the driver's exit-code contract: 2 is reserved
// for violations, 1 for everything that went wrong before analysis
// (bad flags, unparseable packages), 0 for a clean tree — and a clean
// run still writes the (empty) -out report.
func TestExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess go builds; skipped in -short")
	}
	bin := buildDriver(t)

	broken := writeModule(t, map[string]string{
		"go.mod":     "module broken\n\ngo 1.22\n",
		"bad/bad.go": "package bad\n\nfunc Broken( {\n",
	})
	out, code := runIn(t, broken, bin, "./...")
	if code != 1 {
		t.Errorf("standalone on unparseable module: exit %d, want 1\n%s", code, out)
	}

	clean := writeModule(t, map[string]string{
		"go.mod":   "module clean\n\ngo 1.22\n",
		"ok/ok.go": "package ok\n\nfunc Add(a, b int) int { return a + b }\n",
	})
	out, code = runIn(t, clean, bin, "-bogus-flag", "./...")
	if code != 1 {
		t.Errorf("bad flag: exit %d, want 1 (driver error, not a violation)\n%s", code, out)
	}
	report := filepath.Join(clean, "findings.json")
	out, code = runIn(t, clean, bin, "-out", report, "./...")
	if code != 0 {
		t.Errorf("clean module: exit %d, want 0\n%s", code, out)
	}
	if data, err := os.ReadFile(report); err != nil || strings.TrimSpace(string(data)) != "[]" {
		t.Errorf("clean -out report: %q, %v; want empty JSON array", data, err)
	}
}
