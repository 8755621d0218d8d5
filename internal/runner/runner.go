// Package runner executes declarative experiment grids — one cell per
// (scheme, attack, geometry, security level, seed) point — across a
// worker pool, the batched restartable harness behind cmd/figgen and
// cmd/lifetime.
//
// Three properties make multi-hour full-geometry sweeps practical:
//
//   - Determinism. Every cell draws its randomness from a seed derived
//     by hashing (grid name, cell ID) — see SeedFor — never from worker
//     identity or execution order, and results land in index-addressed
//     slots. A run sharded over 8 workers is therefore bit-identical to
//     a sequential one.
//   - Resumability. Each completed cell is checkpointed as a JSON file
//     under Options.CheckpointDir with atomic rename-on-write; a rerun
//     with Options.Resume skips cells whose checkpoint matches their
//     expected seed, so an interrupted grid completes without
//     recomputing finished cells.
//   - Observability. A live ticker on Options.Progress reports cells
//     done/total, throughput, simulated writes/sec and an ETA, and the
//     full per-cell accounting is written to Options.MetaPath as
//     machine-readable JSON.
//
// A cell that errors is marked failed and retriable rather than
// aborting the grid: the remaining cells still run, and a later -resume
// pass retries only the failures.
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
// grid and stable across runs — it names the checkpoint file and, with
// the grid name, determines the cell's RNG seed.
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

// Grid is a declarative experiment grid: a name (which scopes seeds and
// checkpoints — encode anything that changes cell semantics, like scale
// or trial count, into it), the cells, and the function that runs one.
type Grid struct {
	Name  string
	Cells []Cell
	Run   CellFunc
}

// Status classifies how a cell run ended.
type Status string

const (
	// StatusDone: the cell ran to completion in this run.
	StatusDone Status = "done"
	// StatusResumed: the cell was satisfied from a checkpoint.
	StatusResumed Status = "resumed"
	// StatusFailed: the cell function returned an error; retriable.
	StatusFailed Status = "failed"
	// StatusCancelled: the run's context was cancelled before or during
	// the cell; a -resume rerun picks it up.
	StatusCancelled Status = "cancelled"
)

// CellResult is the per-cell accounting the runner reports and
// checkpoints.
type CellResult struct {
	ID          string            `json:"id"`
	Labels      map[string]string `json:"labels,omitempty"`
	Seed        uint64            `json:"seed"`
	Status      Status            `json:"status"`
	Error       string            `json:"error,omitempty"`
	Retriable   bool              `json:"retriable,omitempty"`
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
	Resumed     int          `json:"resumed"`
	Failed      int          `json:"failed"`
	Cancelled   int          `json:"cancelled"`
	WallSeconds float64      `json:"wall_seconds"`
	SimWrites   float64      `json:"sim_writes"`
	Results     []CellResult `json:"cells"`
}

// FailedErr returns nil when every cell is done or resumed, and
// otherwise an error naming the first unfinished cell and how many more
// there are — with the hint that failures are retriable via resume.
func (r *Report) FailedErr() error {
	bad := r.Failed + r.Cancelled
	if bad == 0 {
		return nil
	}
	for _, c := range r.Results {
		if c.Status == StatusDone || c.Status == StatusResumed {
			continue
		}
		return fmt.Errorf("grid %s: %d/%d cells unfinished (first: %s %s: %s); rerun with resume to retry them",
			r.Grid, bad, r.Total, c.ID, c.Status, c.Error)
	}
	return nil
}

// Options configure one grid run. The zero value runs on NumCPU
// workers with no checkpoints and no telemetry.
type Options struct {
	// Workers caps the worker pool; <= 0 means NumCPU.
	Workers int
	// CheckpointDir is the root directory for per-cell checkpoints
	// (one subdirectory per grid); "" disables checkpointing.
	CheckpointDir string
	// Resume satisfies cells from existing checkpoints when their
	// recorded seed matches the expected one.
	Resume bool
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
// Report, not returned; the error return is reserved for grid
// setup problems, checkpoint I/O failures, and context cancellation (in
// which case the partial Report is still returned).
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

	var store *checkpointStore
	cached := map[string]CellResult{}
	if opts.CheckpointDir != "" {
		var err error
		store, err = openCheckpointStore(opts.CheckpointDir, g.Name)
		if err != nil {
			return nil, err
		}
		if opts.Resume {
			cached = store.load()
		}
	}

	results := make([]CellResult, len(g.Cells))
	track := newTracker(g.Name, len(g.Cells), opts.Progress, opts.TickEvery)
	track.start()
	//rbsglint:allow simdeterminism -- WallSeconds is runtime telemetry in the report; cell results never read it
	begin := time.Now()

	errs := parallel.ForEachErr(len(g.Cells), workers, func(i int) error {
		cell := g.Cells[i]
		seed := SeedFor(g.Name, cell.ID)
		res := CellResult{ID: cell.ID, Labels: cell.Labels, Seed: seed}

		if cp, ok := cached[cell.ID]; ok && cp.Seed == seed && (cp.Status == StatusDone || cp.Status == StatusResumed) {
			res = cp
			res.Status = StatusResumed
			res.Labels = cell.Labels
			results[i] = res
			track.observe(res)
			return nil
		}
		if err := ctx.Err(); err != nil {
			res.Status = StatusCancelled
			res.Error = err.Error()
			results[i] = res
			track.observe(res)
			return nil
		}

		//rbsglint:allow simdeterminism -- per-cell wall time is runtime telemetry; the cell metrics are computed before it is read
		cellBegin := time.Now()
		m, err := g.Run(ctx, cell, seed)
		//rbsglint:allow simdeterminism -- per-cell wall time is runtime telemetry; the cell metrics are computed before it is read
		res.WallSeconds = time.Since(cellBegin).Seconds()
		res.Metrics = m
		if err == nil && m.SimWrites > 0 && res.WallSeconds > 0 {
			res.WritesPerSec = m.SimWrites / res.WallSeconds
		}
		var saveErr error
		switch {
		case err == nil:
			res.Status = StatusDone
			if store != nil {
				saveErr = store.save(res)
			}
		case ctx.Err() != nil:
			res.Status = StatusCancelled
			res.Error = ctx.Err().Error()
			res.Metrics = Metrics{}
		default:
			res.Status = StatusFailed
			res.Retriable = true
			res.Error = err.Error()
			res.Metrics = Metrics{}
		}
		results[i] = res
		track.observe(res)
		return saveErr // checkpoint I/O is infrastructure, not a cell failure
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
		case StatusResumed:
			rep.Resumed++
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
	if err := parallel.First(errs); err != nil {
		return rep, err
	}
	return rep, ctx.Err()
}
