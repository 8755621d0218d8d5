package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestGolden runs every demo target and compares stdout and the exit
// code with testdata/<target>.golden. After an intended change,
// regenerate a golden file with
//
//	go run ./cmd/attackdemo -target <target> > cmd/attackdemo/testdata/<target>.golden
func TestGolden(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "attackdemo")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		target string
		code   int
	}{
		{"rbsg", 0},
		{"sr", 0},
		{"sr2", 0},
		{"security-rbsg", 0},
		{"unknown", 1}, // names the targets on stderr, nothing on stdout
	} {
		t.Run(tc.target, func(t *testing.T) {
			cmd := exec.Command(bin, "-target", tc.target)
			got, err := cmd.Output()
			if code := cmd.ProcessState.ExitCode(); code != tc.code {
				t.Fatalf("exit %d, want %d: %v", code, tc.code, err)
			}
			var want []byte
			if tc.code == 0 {
				if want, err = os.ReadFile(filepath.Join("testdata", tc.target+".golden")); err != nil {
					t.Fatal(err)
				}
			}
			if string(got) != string(want) {
				t.Errorf("stdout:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}
