// Package runner executes declarative experiment grids — one cell per
// (scheme, attack, geometry, security level, seed) point — across a
// worker pool in one pass: the harness behind cmd/figgen, cmd/lifetime
// and cmd/tournament.
//
// Two properties make its grids reproducible and debuggable:
//
//   - Determinism. Every cell draws its randomness from a seed derived
//     by hashing (grid name, cell ID) — see SeedFor — never from worker
//     identity or execution order, and results land in index-addressed
//     slots. A run sharded over 8 workers is therefore bit-identical to
//     a sequential one.
//   - Observability. A live ticker on Options.Progress reports cells
//     done/total, throughput, simulated writes/sec and an ETA, and the
//     full per-cell accounting is written to Options.MetaPath as
//     machine-readable JSON.
//
// A cell that errors is marked failed rather than aborting the grid:
// the remaining cells still run. A cancelled run marks the cells it
// had not started as cancelled and still returns the partial Report; a
// rerun recomputes the whole grid, which takes about four minutes for
// the slowest one (fig15 at the paper's geometry, on two cores).
package runner

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"securityrbsg/internal/parallel"
)

// Cell is one point of an experiment grid. ID must be unique within the
// grid and stable across runs: with the grid name, it determines the
// cell's RNG seed.
type Cell struct {
	// ID is the canonical cell key, e.g. "regions=512/inner=64/outer=128".
	ID string `json:"id"`
	// Labels carry structured metadata (scheme, attack, …) into results
	// and telemetry; the runner does not interpret them.
	Labels map[string]string `json:"labels,omitempty"`
}

// Metrics is a cell's numeric output: named scalars plus an optional
// ordered series (e.g. a cumulative-distribution curve). SimWrites, when
// reported, feeds the simulated-writes/sec telemetry rate.
type Metrics struct {
	Values    map[string]float64 `json:"values,omitempty"`
	Series    []float64          `json:"series,omitempty"`
	SimWrites float64            `json:"sim_writes,omitempty"`
}

// CellFunc evaluates one cell. seed is the cell's deterministic RNG
// seed; implementations must draw all randomness from it. ctx is the
// run's context.
type CellFunc func(ctx context.Context, cell Cell, seed uint64) (Metrics, error)

// Grid is a declarative experiment grid: a name (which scopes seeds —
// encode anything that changes cell semantics, like scale or trial
// count, into it), the cells, and the function that runs one.
type Grid struct {
	Name  string
	Cells []Cell
	Run   CellFunc
}

// Status classifies how a cell run ended.
type Status string

const (
	// StatusDone: the cell ran to completion.
	StatusDone Status = "done"
	// StatusFailed: the cell function returned an error.
	StatusFailed Status = "failed"
	// StatusCancelled: the run's context was cancelled before or during
	// the cell.
	StatusCancelled Status = "cancelled"
)

// CellResult is the per-cell accounting the runner reports.
type CellResult struct {
	ID          string            `json:"id"`
	Labels      map[string]string `json:"labels,omitempty"`
	Seed        uint64            `json:"seed"`
	Status      Status            `json:"status"`
	Error       string            `json:"error,omitempty"`
	Metrics     Metrics           `json:"metrics"`
	WallSeconds float64           `json:"wall_seconds"`
	// WritesPerSec is the cell's simulated line-write throughput
	// (Metrics.SimWrites over the cell's wall time). 0 when the cell does
	// not report SimWrites or did not finish. Like WallSeconds it is
	// runtime telemetry: comparing it across BENCH baselines is how the
	// exact tier's per-cell speedups are tracked.
	WritesPerSec float64 `json:"writes_per_sec,omitempty"`
}

// Report is the outcome of one grid run. Results is index-addressed in
// grid order regardless of worker count or completion order.
type Report struct {
	Grid        string       `json:"grid"`
	Workers     int          `json:"workers"`
	Total       int          `json:"total"`
	Done        int          `json:"done"`
	Failed      int          `json:"failed"`
	Cancelled   int          `json:"cancelled"`
	WallSeconds float64      `json:"wall_seconds"`
	SimWrites   float64      `json:"sim_writes"`
	Results     []CellResult `json:"cells"`
}

// FailedErr returns nil when every cell is done, and otherwise an error
// naming the first unfinished cell and how many more there are.
func (r *Report) FailedErr() error {
	bad := r.Failed + r.Cancelled
	if bad == 0 {
		return nil
	}
	for _, c := range r.Results {
		if c.Status == StatusDone {
			continue
		}
		return fmt.Errorf("grid %s: %d/%d cells unfinished (first: %s %s: %s)",
			r.Grid, bad, r.Total, c.ID, c.Status, c.Error)
	}
	return nil
}

// Options configure one grid run. The zero value runs on NumCPU
// workers with no telemetry.
type Options struct {
	// Workers caps the worker pool; <= 0 means NumCPU.
	Workers int
	// Progress receives the live telemetry ticker (typically
	// os.Stderr); nil disables it.
	Progress io.Writer
	// TickEvery is the ticker period; <= 0 means one second.
	TickEvery time.Duration
	// MetaPath, when non-empty, receives the Report as JSON
	// (atomically written) after the run.
	MetaPath string
}

// Run executes the grid. Cell-level failures are recorded in the
// Report, not returned; the error return is reserved for grid setup
// problems, the runmeta write, and context cancellation (in which case
// the partial Report is still returned).
func Run(ctx context.Context, g Grid, opts Options) (*Report, error) {
	if g.Run == nil {
		return nil, errors.New("runner: grid has no cell function")
	}
	if g.Name == "" {
		return nil, errors.New("runner: grid has no name")
	}
	seen := make(map[string]struct{}, len(g.Cells))
	for _, c := range g.Cells {
		if _, dup := seen[c.ID]; dup {
			return nil, fmt.Errorf("runner: duplicate cell ID %q in grid %s", c.ID, g.Name)
		}
		seen[c.ID] = struct{}{}
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}

	results := make([]CellResult, len(g.Cells))
	track := newTracker(g.Name, len(g.Cells), opts.Progress, opts.TickEvery)
	track.start()
	//rbsglint:allow simdeterminism -- WallSeconds is runtime telemetry in the report; cell results never read it
	begin := time.Now()
	parallel.ForEach(len(g.Cells), workers, func(i int) {
		results[i] = runCell(ctx, g, g.Cells[i])
		track.observe(results[i])
	})

	rep := &Report{
		Grid:    g.Name,
		Workers: workers,
		Total:   len(g.Cells),
		//rbsglint:allow simdeterminism -- report wall time is runtime telemetry, not simulation state
		WallSeconds: time.Since(begin).Seconds(),
		Results:     results,
	}
	for _, c := range results {
		switch c.Status {
		case StatusDone:
			rep.Done++
		case StatusFailed:
			rep.Failed++
		case StatusCancelled:
			rep.Cancelled++
		}
		rep.SimWrites += c.Metrics.SimWrites
	}
	track.finish(rep)

	if opts.MetaPath != "" {
		if err := WriteMetaFile(opts.MetaPath, rep); err != nil {
			return rep, err
		}
	}
	return rep, ctx.Err()
}

// runCell evaluates one cell, or marks it cancelled when the run's
// context ended before it started. A failed or cancelled cell keeps no
// metrics.
func runCell(ctx context.Context, g Grid, cell Cell) CellResult {
	res := CellResult{ID: cell.ID, Labels: cell.Labels, Seed: SeedFor(g.Name, cell.ID)}
	if err := ctx.Err(); err != nil {
		res.Status, res.Error = StatusCancelled, err.Error()
		return res
	}
	//rbsglint:allow simdeterminism -- per-cell wall time is runtime telemetry; the cell metrics are computed before it is read
	begin := time.Now()
	m, err := g.Run(ctx, cell, res.Seed)
	//rbsglint:allow simdeterminism -- per-cell wall time is runtime telemetry; the cell metrics are computed before it is read
	res.WallSeconds = time.Since(begin).Seconds()
	switch {
	case err == nil:
		res.Status, res.Metrics = StatusDone, m
		if m.SimWrites > 0 && res.WallSeconds > 0 {
			res.WritesPerSec = m.SimWrites / res.WallSeconds
		}
	case ctx.Err() != nil:
		res.Status, res.Error = StatusCancelled, ctx.Err().Error()
	default:
		res.Status, res.Error = StatusFailed, err.Error()
	}
	return res
}
