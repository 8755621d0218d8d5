// Command figgen regenerates the data series behind every figure in the
// paper's evaluation (Section V), plus the adaptive security level's
// tradeoff curve, and writes them as CSV files under results/ (or prints
// to stdout with -stdout).
//
// Usage:
//
//	figgen [-out results] [-stdout] [-full] [-runs N]
//	       [-workers N] [-resume] [-ckpt DIR] [-quiet]
//	       [fig11 fig12 fig13 fig14 fig15 fig16 overhead perf adaptive]
//
// With no figure arguments, every figure is generated. -full evaluates
// the Monte-Carlo figures (14, 15, 16) at the paper's 1 GB geometry
// instead of the scaled geometry (minutes instead of seconds); the
// closed-form figures (11, 12, 13) always use the paper geometry.
//
// The Monte-Carlo figures and the adaptive grid run through the sharded
// experiment runner (internal/runner): cells spread across -workers
// goroutines with deterministic per-cell seeds (sharded output is
// bit-identical to sequential), completed cells checkpoint under -ckpt,
// and an interrupted run (Ctrl-C, crash) resumes with -resume
// without recomputing finished cells. Progress streams to stderr; the
// per-cell accounting of the whole invocation lands in
// <out>/runmeta.json.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"securityrbsg/internal/analytic"
	"securityrbsg/internal/asciiplot"
	"securityrbsg/internal/core"
	"securityrbsg/internal/experiments"
	"securityrbsg/internal/lifetime"
	"securityrbsg/internal/perfmodel"
	"securityrbsg/internal/runner"
	"securityrbsg/internal/wear"
	"securityrbsg/internal/workload"
)

func main() {
	outDir := flag.String("out", "results", "directory for CSV output")
	toStdout := flag.Bool("stdout", false, "print CSVs to stdout instead of files")
	full := flag.Bool("full", false, "run Monte-Carlo figures at the paper's 1 GB geometry")
	runs := flag.Int("runs", 5, "random-key trials to average (the paper uses 5)")
	plot := flag.Bool("plot", false, "also draw ASCII charts on stdout")
	workers := flag.Int("workers", 0, "worker goroutines for Monte-Carlo grids (0 = NumCPU)")
	resume := flag.Bool("resume", false, "skip cells already checkpointed under -ckpt")
	ckptDir := flag.String("ckpt", "results/.checkpoints", "checkpoint directory ('' disables checkpointing)")
	quiet := flag.Bool("quiet", false, "suppress the live progress ticker")
	flag.Parse()

	figs := flag.Args()
	if len(figs) == 0 {
		figs = []string{"fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "overhead", "perf", "adaptive"}
	}

	// Ctrl-C / SIGTERM cancel the grid cleanly: completed cells keep
	// their checkpoints, so -resume picks up where the run stopped.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	g := &generator{
		ctx: ctx, outDir: *outDir, stdout: *toStdout, full: *full, runs: *runs,
		plot: *plot, workers: *workers, resume: *resume, ckptDir: *ckptDir, quiet: *quiet,
	}
	for _, f := range figs {
		var err error
		switch f {
		case "fig11":
			err = g.fig11()
		case "fig12":
			err = g.fig12()
		case "fig13":
			err = g.fig13()
		case "fig14":
			err = g.fig14()
		case "fig15":
			err = g.fig15()
		case "fig16":
			err = g.fig16()
		case "overhead":
			err = g.overhead()
		case "perf":
			err = g.perf()
		case "adaptive":
			err = g.adaptive()
		default:
			err = fmt.Errorf("unknown figure %q", f)
		}
		if err != nil {
			g.writeMeta()
			fmt.Fprintf(os.Stderr, "figgen: %s: %v\n", f, err)
			if ctx.Err() != nil {
				fmt.Fprintln(os.Stderr, "figgen: interrupted — rerun with -resume to continue without recomputing finished cells")
				os.Exit(130)
			}
			os.Exit(1)
		}
	}
	g.writeMeta()
}

type generator struct {
	ctx     context.Context
	outDir  string
	stdout  bool
	full    bool
	runs    int
	plot    bool
	workers int
	resume  bool
	ckptDir string
	quiet   bool
	reports []*runner.Report
}

// scale maps -full onto the experiment geometry.
func (g *generator) scale() experiments.Scale {
	if g.full {
		return experiments.ScaleFull
	}
	return experiments.ScaleLaptop
}

// runGrid drives one Monte-Carlo grid through the sharded runner and
// fails if any cell did (pointing at -resume for the retry).
func (g *generator) runGrid(grid runner.Grid) (*runner.Report, error) {
	opts := runner.Options{
		Workers:       g.workers,
		CheckpointDir: g.ckptDir,
		Resume:        g.resume,
	}
	if !g.quiet {
		opts.Progress = os.Stderr
	}
	rep, err := runner.Run(g.ctx, grid, opts)
	if rep != nil {
		g.reports = append(g.reports, rep)
	}
	if err != nil {
		return rep, err
	}
	return rep, rep.FailedErr()
}

// writeMeta records the invocation's per-cell accounting as
// machine-readable JSON next to the CSVs.
func (g *generator) writeMeta() {
	if g.stdout || len(g.reports) == 0 {
		return
	}
	path := filepath.Join(g.outDir, "runmeta.json")
	if err := runner.WriteMetaFile(path, g.reports...); err != nil {
		fmt.Fprintf(os.Stderr, "figgen: runmeta: %v\n", err)
	}
}

// emit writes one CSV-formatted table.
func (g *generator) emit(name string, write func(io.Writer) error) error {
	if g.stdout {
		fmt.Printf("# %s\n", name)
		if err := write(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		return nil
	}
	if err := os.MkdirAll(g.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(g.outDir, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := write(f); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// eval resolves one closed-form point through the registry's model tier
// (see internal/plugins/models.go) — the same dispatch cmd/lifetime
// and the tournament use, so a figure can never drift from the plugin a
// scheme name resolves to.
func (g *generator) eval(d lifetime.Device, scheme, att string, p lifetime.SRBSGParams) (lifetime.Estimate, error) {
	return experiments.Evaluate(d, scheme, att, p, g.runs, 1)
}

// fig11: RBSG lifetime under RTA (regions × interval grid) and RAA.
func (g *generator) fig11() error {
	d := lifetime.PaperDevice()
	err := g.emit("fig11_rbsg_rta_vs_raa.csv", func(w io.Writer) error {
		fmt.Fprintln(w, "regions,interval,rta_seconds,raa_seconds,raa_over_rta")
		for _, r := range []uint64{32, 64, 128} {
			for _, psi := range []uint64{16, 32, 64, 100} {
				p := lifetime.SRBSGParams{Regions: r, InnerInterval: psi}
				rta, err := g.eval(d, "rbsg", "rta", p)
				if err != nil {
					return err
				}
				raa, err := g.eval(d, "rbsg", "raa", p)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "%d,%d,%.1f,%.0f,%.0f\n",
					r, psi, rta.Seconds, raa.Seconds, raa.Seconds/rta.Seconds)
			}
		}
		return nil
	})
	if err == nil && g.plot {
		labels := []string{}
		vals := []float64{}
		for _, r := range []uint64{32, 64, 128} {
			for _, psi := range []uint64{16, 100} {
				rta, err := g.eval(d, "rbsg", "rta", lifetime.SRBSGParams{Regions: r, InnerInterval: psi})
				if err != nil {
					return err
				}
				labels = append(labels, fmt.Sprintf("R=%d ψ=%d", r, psi))
				vals = append(vals, rta.Seconds)
			}
		}
		fmt.Print(asciiplot.Bars("Fig 11 — RBSG lifetime under RTA (seconds)", labels, vals, 40))
	}
	return err
}

// srGrid is Table I of the paper.
func srGrid(f func(p lifetime.SRBSGParams) error) error {
	for _, c := range experiments.Fig15CellList() {
		p := lifetime.SRBSGParams{Regions: c.Regions, InnerInterval: c.Inner, OuterInterval: c.Outer}
		if err := f(p); err != nil {
			return err
		}
	}
	return nil
}

// fig12: two-level SR lifetime under RTA over the Table-I grid.
func (g *generator) fig12() error {
	d := lifetime.PaperDevice()
	return g.emit("fig12_sr_rta.csv", func(w io.Writer) error {
		fmt.Fprintln(w, "subregions,inner,outer,lifetime_days")
		err := srGrid(func(p lifetime.SRBSGParams) error {
			e, err := g.eval(d, "two-level-sr", "rta", p)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%d,%d,%d,%.2f\n",
				p.Regions, p.InnerInterval, p.OuterInterval, analytic.SecondsToDays(e.Seconds))
			return nil
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "# ideal lifetime: %.0f days\n", analytic.SecondsToDays(d.IdealSeconds()))
		return nil
	})
}

// fig13: two-level SR lifetime under RAA over the Table-I grid.
func (g *generator) fig13() error {
	d := lifetime.PaperDevice()
	return g.emit("fig13_sr_raa.csv", func(w io.Writer) error {
		fmt.Fprintln(w, "subregions,inner,outer,lifetime_days,fraction_of_ideal")
		err := srGrid(func(p lifetime.SRBSGParams) error {
			e, err := g.eval(d, "two-level-sr", "raa", p)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%d,%d,%d,%.0f,%.3f\n",
				p.Regions, p.InnerInterval, p.OuterInterval,
				analytic.SecondsToDays(e.Seconds), e.FractionOfIdeal)
			return nil
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "# ideal lifetime: %.0f days\n", analytic.SecondsToDays(d.IdealSeconds()))
		return nil
	})
}

// fig14: Security RBSG lifetime vs DFN stage count under RAA and BPA,
// with the two-level SR RAA level for comparison. The stage sweep runs
// as a sharded grid through internal/runner.
func (g *generator) fig14() error {
	paper := lifetime.PaperDevice()
	srRAA := lifetime.RAAOnTwoLevelSR(paper, lifetime.SuggestedSRParams())
	rep, err := g.runGrid(experiments.Fig14Grid(g.scale(), g.runs))
	if err != nil {
		return err
	}
	var raaSeries, bpaSeries []float64
	err = g.emit("fig14_stage_sweep.csv", func(w io.Writer) error {
		fmt.Fprintln(w, "stages,raa_fraction_of_ideal,raa_days_at_1GB,bpa_fraction_of_ideal")
		for i, res := range rep.Results {
			raa := res.Metrics.Values["raa_fraction"]
			bpa := res.Metrics.Values["bpa_fraction"]
			raaSeries = append(raaSeries, 100*raa)
			bpaSeries = append(bpaSeries, 100*bpa)
			fmt.Fprintf(w, "%d,%.3f,%.0f,%.3f\n",
				i+3, raa,
				analytic.SecondsToDays(raa*paper.IdealSeconds()),
				bpa)
		}
		fmt.Fprintf(w, "# two-level SR under RAA: %.3f of ideal (%.0f days)\n",
			srRAA.FractionOfIdeal, analytic.SecondsToDays(srRAA.Seconds))
		fmt.Fprintf(w, "# ideal lifetime: %.0f days\n", analytic.SecondsToDays(paper.IdealSeconds()))
		return nil
	})
	if err == nil && g.plot {
		fmt.Print(asciiplot.Chart{
			Title: "Fig 14 — Security RBSG lifetime vs DFN stages (% of ideal)",
			XLeft: "3 stages", XRight: "20 stages",
			MinY: 0, MaxY: 100,
		}.Render(
			asciiplot.Series{Name: "RAA", Y: raaSeries},
			asciiplot.Series{Name: "BPA", Y: bpaSeries},
		))
	}
	return err
}

// fig15: Security RBSG lifetime under RAA over the Table-I grid,
// sharded across workers through internal/runner.
func (g *generator) fig15() error {
	paper := lifetime.PaperDevice()
	rep, err := g.runGrid(experiments.Fig15Grid(g.scale(), g.runs))
	if err != nil {
		return err
	}
	grid := experiments.Fig15CellList()
	return g.emit("fig15_srbsg_raa.csv", func(w io.Writer) error {
		fmt.Fprintln(w, "subregions,inner,outer,fraction_of_ideal,days_at_1GB")
		for i, c := range grid {
			frac := rep.Results[i].Metrics.Values["fraction"]
			fmt.Fprintf(w, "%d,%d,%d,%.3f,%.0f\n",
				c.Regions, c.Inner, c.Outer, frac,
				analytic.SecondsToDays(frac*paper.IdealSeconds()))
		}
		fmt.Fprintf(w, "# ideal lifetime: %.0f days\n", analytic.SecondsToDays(paper.IdealSeconds()))
		return nil
	})
}

// fig16: normalized accumulated writes across the address space after
// 10^10..10^13 RAA writes (scaled with the geometry), one runner cell
// per write total.
func (g *generator) fig16() error {
	totals := experiments.Fig16Totals(g.scale())
	rep, err := g.runGrid(experiments.Fig16Grid(g.scale()))
	if err != nil {
		return err
	}
	var plotSeries []asciiplot.Series
	err = g.emit("fig16_write_distribution.csv", func(w io.Writer) error {
		fmt.Fprint(w, "address_fraction")
		for _, t := range totals {
			fmt.Fprintf(w, ",cum_at_%.0e", t)
		}
		fmt.Fprintln(w)
		for k := 0; k < experiments.Fig16Points; k++ {
			fmt.Fprintf(w, "%.4f", float64(k+1)/experiments.Fig16Points)
			for i := range totals {
				fmt.Fprintf(w, ",%.4f", rep.Results[i].Metrics.Series[k])
			}
			fmt.Fprintln(w)
		}
		for i, total := range totals {
			plotSeries = append(plotSeries, asciiplot.Series{
				Name: fmt.Sprintf("%.0e", total), Y: rep.Results[i].Metrics.Series,
			})
		}
		return nil
	})
	if err == nil && g.plot {
		fmt.Print(asciiplot.Chart{
			Title: "Fig 16 — normalized accumulated writes (diagonal = uniform)",
			XLeft: "0", XRight: "address space",
			MinY: 0, MaxY: 1,
		}.Render(plotSeries...))
	}
	return err
}

// overhead: the Section V-C-3 hardware-cost table, closed by the
// Section IV-B security condition that sizes the DFN.
func (g *generator) overhead() error {
	const lines, outer = 1 << 22, 128
	return g.emit("overhead.csv", func(w io.Writer) error {
		fmt.Fprintln(w, "stages,register_bits,register_kb,spare_pcm_bytes,sram_mbits,gates")
		for _, s := range []int{3, 6, 7, 10, 20} {
			o := analytic.ComputeOverhead(analytic.OverheadParams{
				Lines: lines, Regions: 512,
				InnerInterval: 64, OuterInterval: outer,
				Stages: s, LineBytes: 256,
			})
			fmt.Fprintf(w, "%d,%d,%.2f,%d,%.2f,%d\n",
				s, o.RegisterBits, float64(o.RegisterBits)/8/1024,
				o.SparePCMBytes, float64(o.SRAMBits)/1e6, o.Gates)
		}
		bits := analytic.Log2(lines)
		fmt.Fprintf(w, "# security condition: S·B ≥ ψ_outer ⇒ S ≥ %d (ψ_outer=%d, B=%d)\n",
			analytic.MinStages(outer, bits), outer, bits)
		return nil
	})
}

// perf: the Section V-C-4 IPC-impact table.
func (g *generator) perf() error {
	cfg := perfmodel.DefaultConfig()
	if !g.full {
		cfg.RequestsPerCore = 6000
	}
	return g.emit("perf_impact.csv", func(w io.Writer) error {
		fmt.Fprintln(w, "inner_interval,benchmark,suite,baseline_ipc,scheme_ipc,degradation_pct")
		for _, psi := range []uint64{32, 64, 128} {
			factory := func(lines uint64) (wear.Scheme, error) {
				return core.New(core.Config{
					Lines: lines, Regions: 64, InnerInterval: psi,
					OuterInterval: 128, Stages: 7, Seed: 7,
				})
			}
			all := append(append([]workload.Profile{}, workload.PARSEC...), workload.SPEC...)
			results, _, err := perfmodel.RunSuite(cfg, all, factory)
			if err != nil {
				return err
			}
			var sums = map[string][2]float64{}
			var suites []string
			for _, r := range results {
				fmt.Fprintf(w, "%d,%s,%s,%.4f,%.4f,%.3f\n",
					psi, r.Name, r.Suite, r.BaselineIPC, r.SchemeIPC, r.DegradationPct)
				if _, seen := sums[r.Suite]; !seen {
					suites = append(suites, r.Suite)
				}
				s := sums[r.Suite]
				s[0] += r.DegradationPct
				s[1]++
				sums[r.Suite] = s
			}
			// First-appearance order, not map order: the summary lines must
			// be as deterministic as the rows they summarize.
			for _, suite := range suites {
				s := sums[suite]
				fmt.Fprintf(w, "# ψ=%d %s average degradation: %.2f%%\n",
					psi, strings.ToUpper(suite), s[0]/s[1])
			}
		}
		return nil
	})
}
