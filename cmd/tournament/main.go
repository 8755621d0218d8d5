// Command tournament plays every registered wear-leveling scheme against
// every registered attack on the exact simulator — the full plugin-matrix
// successor to the hand-wired demo loops — and reports lifetime,
// detection latency and wear-Gini per cell as deterministic CSV.
//
// Usage:
//
//	tournament [-lines N] [-endurance E] [-budget W]
//	           [-schemes a,b,...] [-attacks x,y,...]
//	           [-out tournament.csv] [-meta runmeta.json]
//	           [-workers N] [-quiet]
//	tournament -list
//
// The matrix is whatever the plugin registry holds (internal/registry,
// filled from the table in internal/plugins; see -list): schemes and
// attacks are named entries with capability flags, and only
// capability-compatible exact-tier pairs become cells. Each cell builds a fresh simulated bank, runs the attack
// to device failure (or budget/abort), and reports:
//
//   - lifetime: attacker writes, attack seconds, fraction of ideal
//   - detection latency: attacker-side probe writes (align+detect) and,
//     for schemes with an online detector, the defender's first-alarm
//     write index
//   - wear: the Gini coefficient of the final per-line wear counts, plus
//     the maximum wear fraction
//
// Cells run concurrently on -workers goroutines with per-cell seeds
// derived from (grid name, cell ID), so results are identical no matter
// how the grid is sharded; each cell's sweep kernel runs on one
// goroutine. Failed cells exit nonzero but leave the rest of the grid
// standing. An interrupted play writes its partial CSV, and a rerun
// plays the whole matrix again.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"text/tabwriter"

	"securityrbsg/internal/experiments"
	"securityrbsg/internal/registry"
	"securityrbsg/internal/runner"

	_ "securityrbsg/internal/plugins"
)

func main() {
	lines := flag.Uint64("lines", 1<<12, "logical lines (power of two)")
	endurance := flag.Uint64("endurance", 10000, "per-line write endurance")
	budget := flag.Uint64("budget", 0, "attacker write budget per cell (0 = per-attack default)")
	schemes := flag.String("schemes", "", "comma-separated scheme subset (empty = all registered)")
	attacks := flag.String("attacks", "", "comma-separated attack subset (empty = all registered)")
	out := flag.String("out", "tournament.csv", "per-cell CSV report path")
	meta := flag.String("meta", "", "runmeta JSON path (wall times, throughput; empty = none)")
	workers := flag.Int("workers", 0, "concurrent cells (0 = NumCPU)")
	quiet := flag.Bool("quiet", false, "suppress the progress ticker")
	list := flag.Bool("list", false, "list registered schemes, attacks and the playable matrix")
	flag.Parse()

	if *list {
		listMatrix()
		return
	}
	if err := run(tournamentOptions{
		cfg: experiments.TournamentConfig{
			Lines: *lines, Endurance: *endurance, MaxWrites: *budget,
			Schemes: splitNames(*schemes), Attacks: splitNames(*attacks),
		},
		out: *out, meta: *meta, workers: *workers, quiet: *quiet,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "tournament:", err)
		os.Exit(1)
	}
}

type tournamentOptions struct {
	cfg       experiments.TournamentConfig
	out, meta string
	workers   int
	quiet     bool
}

func run(o tournamentOptions) error {
	grid, err := experiments.TournamentGrid(registry.Default, o.cfg)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opts := runner.Options{Workers: o.workers, MetaPath: o.meta}
	if !o.quiet {
		opts.Progress = os.Stderr
	}
	rep, err := runner.Run(ctx, grid, opts)
	if rep != nil && o.out != "" {
		// Emit the CSV even for partial runs: its status column names
		// the unfinished cells, and a partial report is what you debug
		// from.
		if werr := runner.WriteCSVFile(o.out, rep); werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		return err
	}
	printSummary(rep)
	return rep.FailedErr()
}

// printSummary renders the headline per-cell table on stdout; the CSV
// holds the full metric set.
func printSummary(rep *runner.Report) {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	defer w.Flush()
	fmt.Fprintln(w, "scheme\tattack\tstatus\twrites\tfraction\tdetect writes\twear gini")
	for _, res := range rep.Results {
		if res.Status != runner.StatusDone {
			fmt.Fprintf(w, "%s\t%s\t%s\t-\t-\t-\t-\n",
				res.Labels["scheme"], res.Labels["attack"], res.Status)
			continue
		}
		v := res.Metrics.Values
		held := ""
		if v["defense_held"] == 1 {
			held = " (held)"
		}
		fmt.Fprintf(w, "%s\t%s\t%s%s\t%.4g\t%.3f\t%.4g\t%.3f\n",
			res.Labels["scheme"], res.Labels["attack"], res.Status, held,
			v["writes"], v["fraction"], v["detect_writes"], v["wear_gini"])
	}
}

// listMatrix prints the registered plugins and which pairings are
// playable on the exact tier (with the reason for each exclusion).
func listMatrix() {
	reg := registry.Default
	fmt.Println("schemes:")
	for _, n := range reg.SchemeNames() {
		s, _ := reg.Scheme(n)
		fmt.Printf("  %-16s %s%s\n", n, s.Doc, capsSuffix(s.Caps))
	}
	fmt.Println("attacks:")
	for _, n := range reg.AttackNames() {
		a, _ := reg.Attack(n)
		fmt.Printf("  %-16s %s\n", n, a.Doc)
	}
	fmt.Println("exact-tier matrix:")
	for _, sn := range reg.SchemeNames() {
		s, _ := reg.Scheme(sn)
		if !s.Caps.Exact {
			continue
		}
		for _, an := range reg.AttackNames() {
			a, _ := reg.Attack(an)
			if !a.Caps.Exact {
				continue
			}
			if err := registry.CompatibleExact(s, a); err != nil {
				fmt.Printf("  %-16s vs %-8s skipped: %v\n", sn, an, err)
				continue
			}
			fmt.Printf("  %-16s vs %-8s playable\n", sn, an)
		}
	}
	fmt.Println("model tier pairs:", strings.Join(reg.ModelPairs(), ", "))
}

func capsSuffix(caps registry.SchemeCaps) string {
	var tags []string
	if caps.Exact {
		tags = append(tags, "exact")
	}
	if caps.TimingOracle {
		tags = append(tags, "timing-oracle")
	}
	if caps.AdjustableLevel {
		tags = append(tags, "adjustable-level")
	}
	if len(tags) == 0 {
		return " [model-only]"
	}
	return " [" + strings.Join(tags, ", ") + "]"
}

func splitNames(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
