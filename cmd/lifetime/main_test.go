package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

// TestGolden runs the command on a model-tier RTA estimate per
// attacked scheme and on a small exact RTA run, and compares stdout
// with testdata/<name>.golden. The exact run's wall-clock line is
// dropped first: it times the host, not the simulation. After an
// intended change, regenerate a golden file by running the case's
// arguments (for exact, through `grep -v "wall clock"`) into it.
func TestGolden(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "lifetime")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	wallClock := regexp.MustCompile(`(?m)^.*wall clock.*\n`)
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"rbsg-rta", []string{"-scheme", "rbsg", "-attack", "rta"}},
		{"two-level-sr-rta", []string{"-scheme", "two-level-sr", "-attack", "rta"}},
		{"exact", []string{"-exact", "-lines", "4096", "-endurance", "20000"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := exec.Command(bin, tc.args...).Output()
			if err != nil {
				t.Fatalf("lifetime %v: %v", tc.args, err)
			}
			got = wallClock.ReplaceAll(got, nil)
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
