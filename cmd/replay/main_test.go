package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestGolden pipes tracegen's output into replay, as the usage line
// does, and compares replay's stdout and exit code with
// testdata/<name>.golden: a zipf trace the scheme survives (exit 0)
// and a hammer that wears a line out (exit 2, DEVICE FAILED). After an
// intended change, regenerate a golden file by running the case's
// pipeline into it.
func TestGolden(t *testing.T) {
	dir := t.TempDir()
	tracegen, replay := filepath.Join(dir, "tracegen"), filepath.Join(dir, "replay")
	for bin, pkg := range map[string]string{tracegen: "../tracegen", replay: "."} {
		if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", pkg, err, out)
		}
	}
	for _, tc := range []struct {
		name       string
		gen, flags []string
		code       int
	}{
		{"zipf-security-rbsg",
			[]string{"-kind", "zipf", "-n", "200000", "-lines", "4096"},
			[]string{"-scheme", "security-rbsg", "-endurance", "20000"}, 0},
		{"hammer-rbsg",
			[]string{"-kind", "hammer", "-la", "42", "-n", "50000"},
			[]string{"-scheme", "rbsg", "-endurance", "2000"}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			trace, err := exec.Command(tracegen, tc.gen...).Output()
			if err != nil {
				t.Fatalf("tracegen %v: %v", tc.gen, err)
			}
			cmd := exec.Command(replay, tc.flags...)
			cmd.Stdin = bytes.NewReader(trace)
			got, err := cmd.Output()
			if code := cmd.ProcessState.ExitCode(); code != tc.code {
				t.Fatalf("exit %d, want %d: %v", code, tc.code, err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("stdout:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}
