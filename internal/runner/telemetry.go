package runner

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// tracker accumulates live progress counters and, when given a writer,
// renders them as a single rewritten ticker line: cells done/total,
// failures, cell throughput, simulated writes/sec and an ETA
// extrapolated from the cells computed so far.
type tracker struct {
	name  string
	total int
	w     io.Writer
	every time.Duration

	mu        sync.Mutex
	begin     time.Time
	done      int
	failed    int
	cancelled int
	cellSecs  float64 // wall time of the done cells
	simWrites float64

	stop chan struct{}
	wg   sync.WaitGroup
}

func newTracker(name string, total int, w io.Writer, every time.Duration) *tracker {
	if every <= 0 {
		every = time.Second
	}
	return &tracker{name: name, total: total, w: w, every: every, stop: make(chan struct{})}
}

func (t *tracker) start() {
	//rbsglint:allow simdeterminism -- progress-ticker wall clock; drives the stderr ETA line, never a result
	t.begin = time.Now()
	if t.w == nil {
		return
	}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		tick := time.NewTicker(t.every)
		defer tick.Stop()
		for {
			select {
			case <-t.stop:
				return
			case <-tick.C:
				t.mu.Lock()
				line := t.line()
				t.mu.Unlock()
				fmt.Fprintf(t.w, "\r%-100s", line)
			}
		}
	}()
}

func (t *tracker) observe(res CellResult) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch res.Status {
	case StatusDone:
		t.done++
		t.cellSecs += res.WallSeconds
	case StatusFailed:
		t.failed++
	case StatusCancelled:
		t.cancelled++
	}
	t.simWrites += res.Metrics.SimWrites
}

// line renders one progress line; the caller holds t.mu.
func (t *tracker) line() string {
	finished := t.done + t.failed + t.cancelled
	//rbsglint:allow simdeterminism -- progress-ticker wall clock; drives the stderr ETA line, never a result
	elapsed := time.Since(t.begin).Seconds()
	s := fmt.Sprintf("%s: %d/%d cells", t.name, finished, t.total)
	if t.failed > 0 {
		s += fmt.Sprintf(" (%d FAILED)", t.failed)
	}
	if elapsed > 0 && t.done > 0 {
		rate := float64(t.done) / elapsed
		s += fmt.Sprintf(" · %.1f cells/s", rate)
		if t.simWrites > 0 {
			s += fmt.Sprintf(" · %.2g writes/s", t.simWrites/elapsed)
		}
		if left := t.total - finished; left > 0 {
			s += fmt.Sprintf(" · ETA %s", (time.Duration(float64(left) / rate * float64(time.Second))).Round(time.Second))
		}
	}
	return s
}

// finish stops the ticker and prints the final summary line.
func (t *tracker) finish(rep *Report) {
	close(t.stop)
	t.wg.Wait()
	if t.w == nil {
		return
	}
	s := fmt.Sprintf("%s: %d cells in %.1fs (%d run, %d failed, %d cancelled)",
		rep.Grid, rep.Total, rep.WallSeconds, rep.Done, rep.Failed, rep.Cancelled)
	if rep.Done > 0 {
		s += fmt.Sprintf(" · avg %.2fs/cell", t.cellSecs/float64(rep.Done))
	}
	if rep.SimWrites > 0 && rep.WallSeconds > 0 {
		s += fmt.Sprintf(" · %.2g simulated writes/s", rep.SimWrites/rep.WallSeconds)
	}
	fmt.Fprintf(t.w, "\r%-100s\n", s)
}

// Meta is the machine-readable run record written next to the results:
// one entry per grid executed by the invocation.
type Meta struct {
	WrittenAt string    `json:"written_at"`
	Grids     []*Report `json:"grids"`
}

// WriteMetaFile atomically writes the reports as runmeta JSON (see
// writeFileAtomic), creating the file's directory if needed.
func WriteMetaFile(path string, reports ...*Report) error {
	//rbsglint:allow simdeterminism -- runmeta records when the run happened (provenance), not simulation state
	meta := Meta{WrittenAt: time.Now().UTC().Format(time.RFC3339), Grids: reports}
	data, err := json.MarshalIndent(meta, "", "  ")
	if err == nil {
		err = os.MkdirAll(filepath.Dir(path), 0o755)
	}
	if err == nil {
		err = writeFileAtomic(path, func(w io.Writer) error {
			_, err := w.Write(append(data, '\n'))
			return err
		})
	}
	if err != nil {
		return fmt.Errorf("runner: runmeta: %w", err)
	}
	return nil
}
