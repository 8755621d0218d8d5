// Command lifetime evaluates the lifetime of one (scheme, attack,
// configuration) triple at paper scale, or compares every scheme at the
// recommended configurations.
//
// Usage:
//
//	lifetime [-scheme none|start-gap|rbsg|two-level-sr|security-rbsg]
//	         [-attack raa|bpa|rta]
//	         [-regions R] [-inner ψ] [-outer ψ] [-stages S] [-runs N] [-seed S]
//	lifetime -compare [-workers N] [-quiet]
//	lifetime -exact [-lines N] [-endurance E] [-regions R] [-inner ψ] [-seed S] [-workers N]
//
// All results are for the paper's device: a 1 GB PCM bank of 256 B lines
// with 10^8 write endurance, SET/RESET/READ = 1000/125/125 ns.
//
// -compare drives its (scheme × attack) grid through the sharded
// experiment runner (internal/runner): rows evaluate concurrently on
// -workers goroutines with deterministic per-cell seeds, so the table is
// identical no matter how it is sharded.
//
// -exact replaces the closed-form estimate with the real thing: it plays
// the registry's rbsg/rta cell, the Remapping Timing Attack write by write
// against RBSG on a simulated bank of -lines lines and -endurance
// endurance — tractable at full paper scale (2^22 lines, 10^8
// endurance) thanks to the exact-simulation acceleration layer
// (internal/exactsim: batched write runs, epoch fast-forward and parallel
// sub-region sweep kernels, all bit-identical to the naive loop) — and
// cross-checks the measured writes-to-failure against the Fig 11 model
// within its documented error band.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"text/tabwriter"
	"time"

	"securityrbsg/internal/analytic"
	"securityrbsg/internal/experiments"
	"securityrbsg/internal/lifetime"
	"securityrbsg/internal/registry"
	"securityrbsg/internal/runner"

	_ "securityrbsg/internal/plugins"
)

func main() {
	scheme := flag.String("scheme", "security-rbsg", "wear-leveling scheme")
	attackName := flag.String("attack", "rta", "attack: raa, bpa or rta")
	regions := flag.Uint64("regions", 512, "sub-regions (RBSG sweeps 32-128, SR/SRBSG 256-1024)")
	inner := flag.Uint64("inner", 64, "inner remapping interval (RBSG: the only interval)")
	outer := flag.Uint64("outer", 128, "outer remapping interval")
	stages := flag.Int("stages", 7, "DFN stages (security-rbsg only)")
	runs := flag.Int("runs", 5, "random-key trials to average")
	seed := flag.Uint64("seed", 42, "RNG seed for the single-triple evaluation")
	compare := flag.Bool("compare", false, "print the cross-scheme comparison table")
	workers := flag.Int("workers", 0, "worker goroutines for -compare and -exact (0 = NumCPU)")
	quiet := flag.Bool("quiet", false, "suppress the -compare progress ticker")
	exact := flag.Bool("exact", false, "run the exact accelerated RTA-on-RBSG simulation and cross-check the model")
	lines := flag.Uint64("lines", 1<<22, "logical lines for -exact (power of two; default = paper scale)")
	endurance := flag.Uint64("endurance", 1e8, "per-line write endurance for -exact")
	flag.Parse()

	if *exact {
		// RBSG's recommended configuration, not Security RBSG's: the
		// -regions/-inner defaults target the latter, so substitute the
		// RBSG paper's values unless the user overrode them.
		r, psi := *regions, *inner
		if !flagSet("regions") {
			r = 32
		}
		if !flagSet("inner") {
			psi = 100
		}
		if err := runExact(*lines, *endurance, r, psi, *seed, *workers); err != nil {
			fmt.Fprintln(os.Stderr, "lifetime:", err)
			os.Exit(1)
		}
		return
	}

	d := lifetime.PaperDevice()
	if *compare {
		if err := compareAll(d, *runs, *workers, *quiet); err != nil {
			fmt.Fprintln(os.Stderr, "lifetime:", err)
			os.Exit(1)
		}
		return
	}

	p := lifetime.SRBSGParams{
		Regions: *regions, InnerInterval: *inner, OuterInterval: *outer, Stages: *stages,
	}
	if *scheme == "security-rbsg" && *attackName == "rta" &&
		analytic.DetectionOutrunsKeys(p.Stages, d.AddressBits(), p.OuterInterval) {
		fmt.Fprintf(os.Stderr, "warning: %d stages leak at outer interval %d (need %d)\n",
			p.Stages, p.OuterInterval, analytic.MinStages(p.OuterInterval, d.AddressBits()))
	}
	e, err := experiments.Evaluate(d, *scheme, *attackName, p, *runs, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lifetime:", err)
		os.Exit(1)
	}
	fmt.Printf("scheme=%s attack=%s\n", e.Scheme, e.Attack)
	fmt.Printf("  attacker writes to first failure: %.3g\n", e.Writes)
	fmt.Printf("  device lifetime: %s (%.1f%% of ideal %s)\n",
		analytic.HumanDuration(e.Seconds), 100*e.FractionOfIdeal,
		analytic.HumanDuration(d.IdealSeconds()))
}

// flagSet reports whether the named flag was given on the command line.
func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// runExact plays the registry's rbsg/rta cell — the Remapping Timing
// Attack against RBSG, write by write on a simulated bank, every wear
// count, latency and failure time exact — and cross-checks the measured
// writes-to-failure against the closed-form Fig 11 model. The model's
// documented agreement band against the real attack is a factor of three
// either way (it accounts per-bit reads slightly more conservatively
// than the implementation; see internal/lifetime's model-vs-attack
// test), so a ratio outside [1/3, 3] is an error.
func runExact(lines, endurance, regions, interval, seed uint64, workers int) error {
	if regions == 0 || lines%regions != 0 {
		return fmt.Errorf("-regions %d must divide -lines %d", regions, lines)
	}
	d := lifetime.ScaledDevice(lines, endurance)
	model := lifetime.RTAOnRBSG(d, lifetime.RBSGParams{Regions: regions, Interval: interval})

	fmt.Printf("exact RTA on RBSG: N=2^%d lines, E=%.3g, R=%d, ψ=%d, seed=%d\n",
		d.AddressBits(), float64(endurance), regions, interval, seed)
	//rbsglint:allow simdeterminism -- wall clock measures the simulator's own speed for the throughput report; no simulation state reads it
	start := time.Now()
	out, err := registry.Default.RunExact("rbsg", "rta", registry.Config{
		Lines: lines, Endurance: endurance,
		Regions: regions, InnerInterval: interval,
		Seed: seed, Workers: workers,
	})
	//rbsglint:allow simdeterminism -- wall clock measures the simulator's own speed for the throughput report; no simulation state reads it
	wall := time.Since(start)
	if err != nil {
		return err
	}
	res := out.Result
	if !res.Failed {
		return fmt.Errorf("attack issued %d writes without failing the device", res.Writes)
	}

	secs := float64(res.AttackNs) * 1e-9
	fmt.Printf("  attacker writes to first failure: %.6g (align %d, detect %d, wear %d)\n",
		float64(res.Writes), res.AlignWrites, res.DetectWrites, res.WearWrites)
	fmt.Printf("  device lifetime: %s (%.2g%% of ideal %s)\n",
		analytic.HumanDuration(secs), 100*float64(res.Writes)/d.IdealWrites(),
		analytic.HumanDuration(d.IdealSeconds()))
	fmt.Printf("  first failed line: PA %d at %s\n", res.FailedPA, analytic.HumanDuration(secs))
	fmt.Printf("  wall clock: %s (%.3g simulated line-writes/sec)\n",
		wall.Round(time.Millisecond), float64(out.Stats.DeviceWrites)/wall.Seconds())

	ratio := model.Writes / float64(res.Writes)
	fmt.Printf("  model cross-check: %.6g writes predicted, ratio %.2f\n", model.Writes, ratio)
	if ratio < 1.0/3 || ratio > 3 {
		return fmt.Errorf("model (%.4g writes) and exact run (%d writes) disagree beyond the documented band: ratio %.2f outside [0.33, 3]",
			model.Writes, res.Writes, ratio)
	}
	fmt.Println("  model and exact run agree within the documented band [0.33, 3]")
	return nil
}

// compareAll prints the headline comparison — every scheme at its
// recommended configuration under each attack — evaluating the rows
// concurrently through the experiment runner.
func compareAll(d lifetime.Device, runs, workers int, quiet bool) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opts := runner.Options{Workers: workers}
	if !quiet {
		opts.Progress = os.Stderr
	}
	rep, err := runner.Run(ctx, experiments.CompareGrid(d, runs), opts)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	defer w.Flush()
	fmt.Fprintln(w, "scheme\tattack\tlifetime\tfraction of ideal")
	for _, res := range rep.Results {
		if res.Status != runner.StatusDone {
			fmt.Fprintf(os.Stderr, "lifetime: %s: %s\n", res.ID, res.Error)
			continue
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%.1f%%\n",
			res.Labels["scheme"], res.Labels["attack"],
			analytic.HumanDuration(res.Metrics.Values["seconds"]),
			100*res.Metrics.Values["fraction"])
	}
	fmt.Fprintf(w, "(ideal)\t—\t%s\t100%%\n", analytic.HumanDuration(d.IdealSeconds()))
	return nil
}
