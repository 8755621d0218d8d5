package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"securityrbsg/internal/stats"
)

// syntheticGrid builds an n-cell grid whose cell function is a small
// Monte-Carlo computation driven entirely by the cell seed, so results
// expose any seed- or order-dependence bugs in the runner.
func syntheticGrid(name string, n int) Grid {
	cells := make([]Cell, n)
	for i := range cells {
		cells[i] = Cell{ID: fmt.Sprintf("cell=%03d", i), Labels: map[string]string{"i": fmt.Sprint(i)}}
	}
	return Grid{
		Name:  name,
		Cells: cells,
		Run: func(ctx context.Context, c Cell, seed uint64) (Metrics, error) {
			rng := stats.NewRNG(seed)
			sum := 0.0
			for i := 0; i < 1000; i++ {
				sum += rng.Float64()
			}
			return Metrics{
				Values:    map[string]float64{"sum": sum},
				SimWrites: 1000,
			}, nil
		},
	}
}

// metricsBytes serializes just the per-cell metrics — the part of a
// report that must be bit-identical across worker counts and resumes
// (wall times and worker counts legitimately differ).
func metricsBytes(t *testing.T, rep *Report) []byte {
	t.Helper()
	ms := make([]Metrics, len(rep.Results))
	for i, r := range rep.Results {
		ms[i] = r.Metrics
	}
	data, err := json.Marshal(ms)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestSeedForDeterministicAndDistinct(t *testing.T) {
	if SeedFor("grid", "cell") != SeedFor("grid", "cell") {
		t.Fatal("SeedFor is not deterministic")
	}
	seen := map[uint64]string{}
	for _, grid := range []string{"fig14", "fig15", "fig14/runs=5"} {
		for i := 0; i < 100; i++ {
			id := fmt.Sprintf("cell=%d", i)
			s := SeedFor(grid, id)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: %s/%s and %s", grid, id, prev)
			}
			seen[s] = grid + "/" + id
		}
	}
	// The NUL separator keeps (grid, cell) boundaries unambiguous.
	if SeedFor("ab", "c") == SeedFor("a", "bc") {
		t.Fatal("grid/cell boundary is ambiguous")
	}
}

func TestRunShardedBitIdenticalToSequential(t *testing.T) {
	g := syntheticGrid("shard-test", 40)
	seq, err := Run(context.Background(), g, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(context.Background(), g, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(metricsBytes(t, seq), metricsBytes(t, par)) {
		t.Fatal("workers=8 results differ from workers=1")
	}
	if seq.Done != 40 || par.Done != 40 {
		t.Fatalf("done counts: seq=%d par=%d", seq.Done, par.Done)
	}
}

func TestCellFailureIsRetriableNotFatal(t *testing.T) {
	g := syntheticGrid("fail-test", 10)
	inner := g.Run
	g.Run = func(ctx context.Context, c Cell, seed uint64) (Metrics, error) {
		if c.ID == "cell=004" {
			return Metrics{}, errors.New("synthetic cell failure")
		}
		return inner(ctx, c, seed)
	}
	rep, err := Run(context.Background(), g, Options{Workers: 4})
	if err != nil {
		t.Fatalf("cell failure must not fail the run: %v", err)
	}
	if rep.Done != 9 || rep.Failed != 1 {
		t.Fatalf("done=%d failed=%d, want 9/1", rep.Done, rep.Failed)
	}
	r := rep.Results[4]
	if r.Status != StatusFailed || !r.Retriable || !strings.Contains(r.Error, "synthetic") {
		t.Fatalf("cell 4: %+v", r)
	}
	if rep.FailedErr() == nil {
		t.Fatal("FailedErr must report the failed cell")
	}
}

func TestCancelledRunReturnsPartialReport(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 1)
	g := Grid{
		Name:  "cancel-test",
		Cells: []Cell{{ID: "a"}, {ID: "b"}, {ID: "c"}, {ID: "d"}},
		Run: func(ctx context.Context, c Cell, seed uint64) (Metrics, error) {
			if c.ID == "a" {
				return Metrics{Values: map[string]float64{"v": 1}}, nil
			}
			select {
			case started <- struct{}{}:
			default:
			}
			<-ctx.Done()
			return Metrics{}, ctx.Err()
		},
	}
	go func() {
		<-started
		cancel()
	}()
	rep, err := Run(ctx, g, Options{Workers: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if rep == nil || rep.Done != 1 || rep.Cancelled != 3 {
		t.Fatalf("partial report: %+v", rep)
	}
}

func TestDuplicateCellIDsRejected(t *testing.T) {
	g := Grid{
		Name:  "dup",
		Cells: []Cell{{ID: "x"}, {ID: "x"}},
		Run:   func(context.Context, Cell, uint64) (Metrics, error) { return Metrics{}, nil },
	}
	if _, err := Run(context.Background(), g, Options{}); err == nil {
		t.Fatal("duplicate IDs must be rejected")
	}
}

func TestCheckpointsAndRunmetaWritten(t *testing.T) {
	dir := t.TempDir()
	meta := filepath.Join(dir, "runmeta.json")
	g := syntheticGrid("ckpt-test", 5)
	rep, err := Run(context.Background(), g, Options{
		Workers:       2,
		CheckpointDir: filepath.Join(dir, "ckpt"),
		MetaPath:      meta,
	})
	if err != nil {
		t.Fatal(err)
	}
	store, err := openCheckpointStore(filepath.Join(dir, "ckpt"), g.Name)
	if err != nil {
		t.Fatal(err)
	}
	cached := store.load()
	if len(cached) != 5 {
		t.Fatalf("got %d checkpoints, want 5", len(cached))
	}
	for _, r := range rep.Results {
		cp, ok := cached[r.ID]
		if !ok || cp.Seed != r.Seed || cp.Status != StatusDone {
			t.Fatalf("checkpoint for %s: %+v", r.ID, cp)
		}
	}
	// Atomic writes leave no temp files behind.
	entries, _ := os.ReadDir(filepath.Join(dir, "ckpt", sanitize(g.Name)))
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
	data, err := os.ReadFile(meta)
	if err != nil {
		t.Fatal(err)
	}
	var m Meta
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Grids) != 1 || m.Grids[0].Done != 5 || len(m.Grids[0].Results) != 5 {
		t.Fatalf("runmeta: %+v", m)
	}
	// Per-cell throughput telemetry survives the round trip to disk.
	for _, r := range m.Grids[0].Results {
		if r.WritesPerSec <= 0 {
			t.Fatalf("cell %s: writes_per_sec missing from runmeta: %+v", r.ID, r)
		}
	}
}

// TestCellThroughputReported: every finished cell that reports SimWrites
// gets a WritesPerSec rate consistent with its wall time; cells that
// report nothing get zero.
func TestCellThroughputReported(t *testing.T) {
	rep, err := Run(context.Background(), syntheticGrid("thru-test", 3), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Results {
		if r.WritesPerSec <= 0 {
			t.Fatalf("cell %s: no throughput: %+v", r.ID, r)
		}
		if want := r.Metrics.SimWrites / r.WallSeconds; r.WritesPerSec != want {
			t.Fatalf("cell %s: writes/sec %v, want SimWrites/WallSeconds = %v", r.ID, r.WritesPerSec, want)
		}
	}

	quiet := Grid{
		Name:  "thru-quiet",
		Cells: []Cell{{ID: "q"}},
		Run: func(context.Context, Cell, uint64) (Metrics, error) {
			return Metrics{Values: map[string]float64{"x": 1}}, nil
		},
	}
	rep, err = Run(context.Background(), quiet, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Results[0].WritesPerSec != 0 {
		t.Fatalf("cell without SimWrites must not report throughput: %+v", rep.Results[0])
	}
}

func TestTelemetryTickerWrites(t *testing.T) {
	var buf bytes.Buffer
	g := syntheticGrid("telemetry-test", 8)
	inner := g.Run
	g.Run = func(ctx context.Context, c Cell, seed uint64) (Metrics, error) {
		time.Sleep(5 * time.Millisecond)
		return inner(ctx, c, seed)
	}
	if _, err := Run(context.Background(), g, Options{
		Workers: 2, Progress: &buf, TickEvery: time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "telemetry-test") || !strings.Contains(out, "8 cells") {
		t.Fatalf("telemetry output missing summary: %q", out)
	}
}
