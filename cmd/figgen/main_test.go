package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"securityrbsg/internal/experiments"
	"securityrbsg/internal/runner"
)

// buildFiggen builds the command into a test temp dir: a real binary,
// so a test can signal it (go run does not forward signals).
func buildFiggen(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "figgen")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

// TestGolden runs the built figgen over every figure that finishes in
// about a second and requires each CSV it writes to be byte-identical
// to the committed one under results/: the committed results are the
// golden files. fig14 and fig15 take about 10 s and 2 min, so
// internal/experiments' TestSeedStabilityFingerprints pins their grids'
// metrics, at fewer trials, instead. The -workers 1 case pins the
// runner's promise that sharding never changes a byte.
func TestGolden(t *testing.T) {
	bin := buildFiggen(t)
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
			args := append([]string{"-out", dir, "-quiet"}, tc.flags...)
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

// TestInterruptRecordsPartialGrid sends SIGINT to a fig15 run once one
// of its cells has finished. figgen must exit 130, record the partial
// grid in runmeta.json (every cell done or cancelled, some cancelled)
// and write no fig15 CSV: a rerun recomputes the grid.
func TestInterruptRecordsPartialGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("builds figgen and runs fig15 until a cell finishes")
	}
	bin := buildFiggen(t)
	dir := t.TempDir()
	cells := len(experiments.Fig15CellList())
	// Two workers, however many cores the host has, so most of the grid
	// is still unstarted when the first cell finishes.
	cmd := exec.Command(bin, "-out", dir, "-workers", "2", "fig15")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	watchdog := time.AfterFunc(5*time.Minute, func() { cmd.Process.Kill() })
	defer watchdog.Stop()

	// The progress ticker rewrites "<grid>: N/<cells> cells" every second.
	finished := regexp.MustCompile(fmt.Sprintf(`: [1-9][0-9]*/%d cells`, cells))
	var log bytes.Buffer
	buf := make([]byte, 4096)
	interrupted := false
	for {
		n, rerr := stderr.Read(buf)
		log.Write(buf[:n])
		if !interrupted && finished.Match(log.Bytes()) {
			if err := cmd.Process.Signal(os.Interrupt); err != nil {
				t.Fatal(err)
			}
			interrupted = true
		}
		if rerr != nil {
			break
		}
	}
	err = cmd.Wait()
	if !interrupted {
		t.Fatalf("no cell finished before figgen exited (%v):\n%s", err, log.Bytes())
	}
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 130 {
		t.Fatalf("figgen fig15 after SIGINT: %v, want exit status 130\n%s", err, log.Bytes())
	}

	data, err := os.ReadFile(filepath.Join(dir, "runmeta.json"))
	if err != nil {
		t.Fatal(err)
	}
	var meta runner.Meta
	if err := json.Unmarshal(data, &meta); err != nil {
		t.Fatal(err)
	}
	if len(meta.Grids) != 1 {
		t.Fatalf("runmeta has %d grids, want 1", len(meta.Grids))
	}
	g := meta.Grids[0]
	if g.Done+g.Cancelled != cells || g.Cancelled == 0 || g.Failed != 0 {
		t.Fatalf("runmeta: %d done, %d cancelled, %d failed; want done + cancelled = %d with some cancelled",
			g.Done, g.Cancelled, g.Failed, cells)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig15_srbsg_raa.csv")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("interrupted fig15 wrote its CSV (stat: %v)", err)
	}
}
