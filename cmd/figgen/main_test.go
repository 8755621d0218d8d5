package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestGolden runs the built figgen over every figure that finishes in
// about a second and requires each CSV it writes to be byte-identical
// to the committed one under results/: the committed results are the
// golden files. fig14 and fig15 take about 10 s and 2 min, so
// internal/experiments' TestSeedStabilityFingerprints pins their grids'
// metrics, at fewer trials, instead. The -workers 1 case pins the
// runner's promise that sharding never changes a byte.
func TestGolden(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "figgen")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	figs := []struct{ name, file string }{
		{"fig11", "fig11_rbsg_rta_vs_raa.csv"},
		{"fig12", "fig12_sr_rta.csv"},
		{"fig13", "fig13_sr_raa.csv"},
		{"fig16", "fig16_write_distribution.csv"},
		{"overhead", "overhead.csv"},
		{"perf", "perf_impact.csv"},
		{"adaptive", "adaptive_tradeoff.csv"},
	}
	for _, tc := range []struct {
		name  string
		flags []string
	}{
		{"default", nil},
		{"workers=1", []string{"-workers", "1"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			args := append([]string{"-out", dir, "-ckpt", "", "-quiet"}, tc.flags...)
			var want bytes.Buffer
			for _, f := range figs {
				args = append(args, f.name)
				fmt.Fprintf(&want, "wrote %s\n", filepath.Join(dir, f.file))
			}
			cmd := exec.Command(bin, args...)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("figgen %v: %v\n%s", args, err, stderr.Bytes())
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Errorf("stdout:\n%s\nwant:\n%s", got, want.Bytes())
			}
			for _, f := range figs {
				csv, err := os.ReadFile(filepath.Join(dir, f.file))
				if err != nil {
					t.Fatal(err)
				}
				golden, err := os.ReadFile(filepath.Join("..", "..", "results", f.file))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(csv, golden) {
					t.Errorf("%s differs from results/%s:\n%s", f.name, f.file, csv)
				}
			}
		})
	}
}
