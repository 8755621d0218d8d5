package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"securityrbsg/internal/experiments"
	"securityrbsg/internal/registry"
	"securityrbsg/internal/runner"

	_ "securityrbsg/internal/plugins"
)

// rssPoll is how often a running tournament's peak RSS is read.
const rssPoll = 5 * time.Millisecond

// simWorkers is the tournament's worker count: one per core of the
// reference host.
const simWorkers = 2

// tournamentRun is one finished tournament process.
type tournamentRun struct {
	wall      time.Duration
	rss       int64
	simWrites float64
	cells     int
	done      int
}

// runTournament execs the tournament CLI over w's geometry (with a
// per-cell attacker budget when budget > 0) and checks its report: exit
// 0, every cell done and, when wantSHA is set, the CSV's SHA-256. The
// run is returned whenever its runmeta could be read, so the caller can
// count its cells even when a check failed.
func runTournament(w *workload, binDir, dir string, budget uint64, wantSHA string) (*tournamentRun, error) {
	csvPath := filepath.Join(dir, "tournament.csv")
	metaPath := filepath.Join(dir, "runmeta.json")
	os.Remove(csvPath) // a stale report must not pass for this play's
	os.Remove(metaPath)
	args := []string{
		"-lines", strconv.FormatUint(w.lines, 10),
		"-endurance", strconv.FormatUint(w.endurance, 10),
		"-workers", strconv.Itoa(simWorkers),
		"-quiet", "-out", csvPath, "-meta", metaPath,
	}
	if budget > 0 {
		args = append(args, "-budget", strconv.FormatUint(budget, 10))
	}
	cmd := exec.Command(filepath.Join(binDir, "tournament"), args...)
	logPath := filepath.Join(dir, "tournament.log")
	log, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer log.Close()
	cmd.Stdout, cmd.Stderr = log, log
	cmd.SysProcAttr = orphanKill
	begin := now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	// The process exits on its own, so its peak resident set is polled
	// while it runs (see peakRSS).
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	tick := time.NewTicker(rssPoll)
	defer tick.Stop()
	r := &tournamentRun{}
	var runErr error
	for waiting := true; waiting; {
		select {
		case runErr = <-exited:
			r.wall = now().Sub(begin)
			waiting = false
		case <-tick.C:
			if rss, err := peakRSS(cmd.Process.Pid); err == nil {
				r.rss = max(r.rss, rss)
			}
		}
	}
	raw, err := os.ReadFile(metaPath)
	if err == nil {
		var meta runner.Meta
		if err = json.Unmarshal(raw, &meta); err == nil && len(meta.Grids) != 1 {
			err = fmt.Errorf("runmeta has %d grids, want 1", len(meta.Grids))
		}
		if err == nil {
			g := meta.Grids[0]
			r.simWrites, r.cells, r.done = g.SimWrites, g.Total, g.Done
		}
	}
	if err != nil {
		out, _ := os.ReadFile(logPath) // diagnostics only
		return nil, fmt.Errorf("tournament %v: %w\n%s", args, errors.Join(runErr, err), out)
	}
	if runErr != nil || r.done != r.cells {
		out, _ := os.ReadFile(logPath) // diagnostics only
		return r, fmt.Errorf("tournament %v: %d of %d cells done (%v)\n%s", args, r.done, r.cells, runErr, out)
	}
	if wantSHA != "" {
		data, err := os.ReadFile(csvPath)
		if err != nil {
			return r, err
		}
		if got := sha256Hex(data); got != wantSHA {
			return r, fmt.Errorf("tournament CSV SHA-256 %s, reference %s", got, wantSHA)
		}
	}
	return r, nil
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// simSetups is how many fixed-cost runs one sim_tournament run times.
const simSetups = 5

// simPlay is about one play of the full matrix on the reference host.
const simPlay = 15 * time.Second

// runSim runs sim_tournament. Set-up is the same matrix with a budget
// of one attacker write per cell: process start, registry, and the
// construction of every cell's simulated bank. The measured part plays
// the full matrix once per simPlay of o.window (at least once) and
// reports the median over plays; the count depends only on o.window so
// every run does the same work. The seed does not reach this workload:
// cell seeds derive from the grid, which is what lets the CSV be pinned.
func runSim(w *workload, seed uint64, o *options) (*result, error) {
	dir := filepath.Join(o.work, "run", w.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	res := &result{correct: true, metrics: map[string]float64{}}
	var setups []float64
	for i := 0; i < simSetups; i++ {
		r, err := runTournament(w, o.binDir, dir, 1, "")
		if err != nil {
			return nil, err
		}
		setups = append(setups, r.wall.Seconds())
	}
	// The tournament answers one request per play, the whole matrix, so
	// its latency percentiles are taken over plays. Per-cell times are
	// no substitute: half the cells last a few milliseconds and their
	// times are mostly scheduling noise.
	plays := max(1, int(o.window/simPlay))
	if o.trace {
		plays = 1 // the untraced baseline for the tracing overhead
	}
	var tput, walls, rss []float64
	for len(tput) < plays {
		r, err := runTournament(w, o.binDir, dir, 0, w.csvSHA)
		if r != nil {
			res.attempted += uint64(r.cells)
			res.failed += uint64(r.cells - r.done)
		}
		if err != nil {
			if res.attempted == 0 {
				return nil, err
			}
			res.correct = false
			return res, err
		}
		tput = append(tput, r.simWrites/r.wall.Seconds())
		walls = append(walls, float64(r.wall)/1e3)
		rss = append(rss, float64(r.rss)/1e6)
	}
	if !o.trace {
		res.metrics["throughput_ops_s"] = median(tput)
		res.metrics["latency_p50_us"] = median(walls)
		res.metrics["latency_p90_us"] = quantile(walls, 0.90)
		res.metrics["setup_s"] = median(setups)
		res.metrics["rss_mb"] = median(rss)
		return res, nil
	}
	if err := traceSim(w, o, tput[0], res); err != nil {
		res.correct = false
		return res, err
	}
	return res, ladder(w, seed, 0, res.metrics)
}

// traceSim plays the tournament grid in-process through runner.Run
// with every cell wrapped in a span, and reports the runner and
// per-cell layers. untracedTput is the CLI's simulated writes/s.
func traceSim(w *workload, o *options, untracedTput float64, res *result) error {
	grid, err := experiments.TournamentGrid(registry.Default, experiments.TournamentConfig{Lines: w.lines, Endurance: w.endurance})
	if err != nil {
		return err
	}
	start := now()
	rec := newRecorder(4*len(grid.Cells), start)
	root := rec.add(-1, "run", start, start)
	inner := grid.Run
	grid.Run = func(ctx context.Context, c runner.Cell, seed uint64) (runner.Metrics, error) {
		t0 := now()
		m, err := inner(ctx, c, seed)
		rec.add(root, "cell "+c.ID, t0, now())
		return m, err
	}
	rep, err := runner.Run(context.Background(), grid, runner.Options{Workers: simWorkers})
	end := now()
	if err != nil {
		return err
	}
	rec.spans[root].end = int64(end.Sub(start))
	if err := rep.FailedErr(); err != nil {
		return err
	}
	h := sha256.New()
	if err := runner.WriteCSV(h, rep); err != nil {
		return err
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != w.csvSHA {
		return fmt.Errorf("in-process tournament CSV SHA-256 %s, reference %s", got, w.csvSHA)
	}
	res.attempted += uint64(rep.Total)

	m := res.metrics
	var cellSum, critical float64
	for _, c := range rep.Results {
		cellSum += c.WallSeconds
		critical = max(critical, c.WallSeconds)
		m[cellMetric(c.Labels["scheme"], c.Labels["attack"])] = c.WallSeconds
	}
	wall := end.Sub(start).Seconds()
	m["runner.wall_s"] = rep.WallSeconds
	m["runner.utilization"] = cellSum / (rep.WallSeconds * simWorkers)
	m["runner.critical_cell_s"] = critical
	m["exactsim.writes_per_s"] = rep.SimWrites / cellSum
	m["trace.overhead_pct"] = (untracedTput - rep.SimWrites/wall) / untracedTput * 100
	m["trace.dropped_spans"] = float64(rec.dropped.Load())
	if o.traceDir != "" {
		return writeSpans(o.traceDir, w.name, rec)
	}
	return nil
}
