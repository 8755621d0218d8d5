// Command rbsgbench is the repository benchmark. It builds memctld,
// memrouterd and tournament from the checked-out tree, drives them from
// outside through their documented surfaces (wire-v1 frames, /metrics,
// the tournament's CSV and runmeta), checks every output, and prints
// each end-to-end metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// With -trace 1 the run is repeated with spans recorded in the driver,
// the in-process layer ladder is measured, and the metrics are the
// per-layer ones instead; span files land in -trace-dir.
//
// Usage (from the repository root):
//
//	bash bench/run.sh -workload serve_uniform -seed 1 -seconds 20
//	bash bench/run.sh -runs 5                 # every workload, median and quartiles
//	bash bench/run.sh -workload all -trace 1  # per-layer metrics and span files
//	bash bench/run.sh -smoke                  # toy geometry, about a second per workload
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"time"
)

// workload is one traffic mix (serving) or one simulation job.
type workload struct {
	name, why string
	sim       bool
	banks     int
	lines     uint64
	shards    int  // serving: memctld processes; more than one puts memrouterd in front
	attack    bool // serving: connection 0 is a tenant waiting for each answer, connection 1 hammers one line
	endurance uint64
	csvSHA    string // sim: SHA-256 of the tournament CSV this geometry must produce
}

var workloads = []workload{
	{name: "serve_uniform", banks: 64, lines: 1 << 18, shards: 1,
		why: "single-node capacity on cache-resident state: codec, connection loop, actor handoff and per-op scheme work dominate"},
	{name: "serve_routed", banks: 64, lines: 1 << 18, shards: 2,
		why: "serve_uniform's traffic and geometry through memrouterd and two shards, so the router hop gets a measured cost"},
	{name: "serve_attack_large", banks: 64, lines: 1 << 24, shards: 1, attack: true,
		why: "a tenant's round trip while a hammer saturates one bank and escalates the security level, on state beyond the caches"},
	{name: "sim_tournament", sim: true, banks: 1, lines: 1 << 14, endurance: 100000,
		csvSHA: "ca8cc11069152f64020fe5fd08f38d6a44054689948bd6d9cd42bd89d41a9ffa",
		why:    "time to result of the exact-tier scheme x attack matrix; shares no transport code with serving"},
}

// smoke shrinks w to toy geometry for a run of about a second.
func (w workload) smoke() workload {
	switch {
	case w.sim:
		w.lines, w.endurance = 1<<10, 3000
		w.csvSHA = "00f87ef8b159bbd816ee8b9e96ffe6be8dd62bf781ae6a88bdf9b04548f9d7f0"
	case w.attack:
		w.banks, w.lines = 8, 1<<16
	default:
		w.banks, w.lines = 8, 1<<14
	}
	return w
}

type options struct {
	work     string // scratch space for built binaries and run files
	binDir   string
	traceDir string
	window   time.Duration // measured window of a serving run; sets the tournament's play count
	warmup   time.Duration
	trace    bool
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("rbsgbench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "input seed: op streams and daemon keys derive from it")
	secs := fs.Float64("seconds", 20, "measured window of each run, in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	traceDir := fs.String("trace-dir", "", "where traced runs write <workload>.spans.json (default <work>/trace)")
	runs := fs.Int("runs", 1, "runs per workload, seeds seed..seed+runs-1; prints median and quartiles")
	smoke := fs.Bool("smoke", false, "toy geometry and a one-second window")
	repo := fs.String("repo", ".", "repository root to build the daemons from")
	work := fs.String("work", "", "directory for builds and run files (default <repo>/.bench_build)")
	binDir := fs.String("bin", "", "use prebuilt memctld, memrouterd and tournament from this directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "rbsgbench: -trace takes 0 or 1")
		return 2
	}
	o := &options{
		work: *work, binDir: *binDir, traceDir: *traceDir,
		window: time.Duration(*secs * float64(time.Second)), warmup: 2 * time.Second,
		trace: *trace == 1,
	}
	if o.work == "" {
		o.work = filepath.Join(*repo, ".bench_build")
	}
	if o.traceDir == "" {
		o.traceDir = filepath.Join(o.work, "trace")
	}
	if *smoke {
		o.window, o.warmup = time.Second, 200*time.Millisecond
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			if *smoke {
				w = w.smoke()
			}
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "rbsgbench: unknown workload %q\n", *name)
		return 2
	}
	defs := endToEnd
	if o.trace {
		var err error
		if defs, err = perLayer(); err != nil {
			fmt.Fprintln(os.Stderr, "rbsgbench:", err)
			return 1
		}
	}
	if o.binDir == "" {
		o.binDir = filepath.Join(o.work, "bin")
		if err := buildDaemons(*repo, o.binDir); err != nil {
			fmt.Fprintln(os.Stderr, "rbsgbench:", err)
			return 1
		}
	}

	status := 0
	all := map[string][]*result{}
	for i := range selected {
		w := &selected[i]
		for k := 0; k < *runs; k++ {
			s := *seed + uint64(k)
			fmt.Fprintf(stdout, "== %s seed=%d trace=%d\n", w.name, s, *trace)
			var res *result
			var err error
			if w.sim {
				res, err = runSim(w, s, o)
			} else {
				res, err = runServe(w, s, o)
			}
			if err == nil {
				err = res.complete(defs, o.trace)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "rbsgbench: %s seed %d: %v\n", w.name, s, err)
				status = 1
			}
			if res == nil {
				continue
			}
			printRun(stdout, defs, res)
			all[w.name] = append(all[w.name], res)
		}
	}
	if len(all) == 0 {
		return 1
	}
	if *runs > 1 {
		printSpread(stdout, selected, defs, all)
	}
	if err := printJSON(stdout, selected, defs, all); err != nil {
		fmt.Fprintln(os.Stderr, "rbsgbench:", err)
		return 1
	}
	return status
}

// buildDaemons compiles the three programs the benchmark drives from
// the checked-out tree (build time is not measured).
func buildDaemons(repo, binDir string) error {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", binDir+string(os.PathSeparator),
		"./cmd/memctld", "./cmd/memrouterd", "./cmd/tournament")
	cmd.Dir = repo
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("build daemons in %s: %w\n%s", repo, err, out)
	}
	return nil
}

func printRun(w io.Writer, defs []metricDef, r *result) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-48s %16.6g %-9s", d.name, r.metrics[d.name], d.unit)
		if d.moves != "" {
			fmt.Fprintf(w, " moves %s", d.moves)
		}
		fmt.Fprintln(w)
	}
	verdict := "ok"
	if !r.correct {
		verdict = "FAILED"
	}
	fmt.Fprintf(w, "  checks %s: attempted %d, failed %d\n", verdict, r.attempted, r.failed)
}

// quartiles returns the quartiles of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (its default "exclusive"
// method), so spreads printed here match a check made in Python.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// printSpread prints each metric's median, quartiles and quartile
// spread (as a share of the median) over a set of runs.
func printSpread(w io.Writer, selected []workload, defs []metricDef, all map[string][]*result) {
	fmt.Fprintf(w, "== spread over runs: %-36s %14s %14s %14s %8s %6s\n", "metric", "median", "q1", "q3", "iqr/med", "bound")
	for _, wl := range selected {
		rs := all[wl.name]
		for _, d := range defs {
			q1, med, q3 := quartiles(values(rs, d.name))
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			fmt.Fprintf(w, "   %-55s %14.6g %14.6g %14.6g %8.4f %6.2f\n", wl.name+"/"+d.name, med, q1, q3, spread, d.bound)
		}
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// printJSON prints the result line: per metric the median over runs.
// With several workloads the metric names are prefixed "<workload>/".
func printJSON(w io.Writer, selected []workload, defs []metricDef, all map[string][]*result) error {
	out := jsonResult{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, wl := range selected {
		rs := all[wl.name]
		if len(rs) == 0 {
			out.Correct = false
			continue
		}
		for _, r := range rs {
			out.Correct = out.Correct && r.correct
			out.Attempted += r.attempted
			out.Failed += r.failed
		}
		for _, d := range defs {
			key := d.name
			if len(selected) > 1 {
				key = wl.name + "/" + d.name
			}
			v := median(values(rs, d.name))
			if math.IsInf(v, 1) {
				v = math.MaxFloat64 // a latency percentile that fell on refused frames
			}
			out.Metrics[key] = jsonMetric{Value: v, Unit: d.unit}
		}
	}
	if out.Attempted == 0 {
		return errors.New("no run attempted any work")
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// values collects one metric over a workload's runs.
func values(rs []*result, name string) []float64 {
	xs := make([]float64, 0, len(rs))
	for _, r := range rs {
		xs = append(xs, r.metrics[name])
	}
	return xs
}
