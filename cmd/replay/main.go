// Command replay drives a pcmtrace file (see internal/trace and
// cmd/tracegen) through a chosen wear-leveling scheme and reports the
// resulting wear profile, overhead and — if the endurance is exceeded —
// the failure point.
//
// Usage:
//
//	tracegen -kind zipf -n 2000000 -lines 4096 | replay -scheme security-rbsg -endurance 20000
//	replay -scheme rbsg -in app.trace
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"securityrbsg/internal/core"
	"securityrbsg/internal/pcm"
	"securityrbsg/internal/rbsg"
	"securityrbsg/internal/secref"
	"securityrbsg/internal/startgap"
	"securityrbsg/internal/stats"
	"securityrbsg/internal/tablewl"
	"securityrbsg/internal/trace"
	"securityrbsg/internal/wear"
)

func main() {
	in := flag.String("in", "-", "trace file ('-' for stdin)")
	schemeName := flag.String("scheme", "security-rbsg", "none|start-gap|table-wl|rbsg|two-level-sr|security-rbsg")
	regions := flag.Uint64("regions", 16, "regions / sub-regions")
	inner := flag.Uint64("inner", 8, "inner remapping interval")
	outer := flag.Uint64("outer", 16, "outer remapping interval")
	stages := flag.Int("stages", 7, "DFN stages (security-rbsg)")
	endurance := flag.Uint64("endurance", pcm.MaxEndurance, "per-line endurance, 1 to 2^30−2 (default: the maximum)")
	seed := flag.Uint64("seed", 1, "key seed")
	flag.Parse()

	var src io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		src = f
	}
	r, err := trace.NewReader(src)
	if err != nil {
		fatal(err)
	}

	scheme, err := buildScheme(*schemeName, r.Lines(), *regions, *inner, *outer, *stages, *seed)
	if err != nil {
		fatal(err)
	}
	ctrl, err := wear.NewController(pcm.Config{
		Endurance: *endurance, Timing: pcm.DefaultTiming,
	}, scheme)
	if err != nil {
		fatal(err)
	}

	st, err := trace.Replay(ctrl, r)
	if err != nil {
		fatal(err)
	}

	cs := ctrl.Stats()
	fmt.Printf("scheme: %s over %d lines\n", scheme.Name(), r.Lines())
	fmt.Printf("replayed: %d writes, %d reads, %.3f ms device time\n",
		st.Writes, st.Reads, float64(st.ElapsedNs)/1e6)
	fmt.Printf("remap movements: %d (write overhead %.2f%%)\n",
		cs.RemapEvents, 100*cs.WriteOverhead)
	fmt.Printf("max line wear: %d (at PA %d)", cs.MaxWear, cs.MaxWearPA)
	if cs.DeviceWrites > 0 {
		fmt.Printf(" — perfectly uniform would be %.0f", float64(cs.DeviceWrites)/float64(ctrl.Bank().Lines()))
	}
	fmt.Println()
	fmt.Printf("wear uniformity error: %.4f (0 = perfectly even)\n",
		stats.UniformityError(ctrl.Bank().WearSnapshot(nil)))
	fmt.Printf("energy: %.1f µJ\n", cs.EnergyMicrojoules)
	if st.Failed {
		fmt.Printf("DEVICE FAILED at physical line %d\n", st.FailedPA)
		os.Exit(2)
	}
}

func buildScheme(name string, lines, regions, inner, outer uint64, stages int, seed uint64) (wear.Scheme, error) {
	switch name {
	case "none":
		return wear.NewPassthrough(lines), nil
	case "start-gap":
		return startgap.NewSingle(lines, inner)
	case "table-wl":
		return tablewl.New(tablewl.Config{Lines: lines, Interval: inner})
	case "rbsg":
		return rbsg.New(rbsg.Config{Lines: lines, Regions: regions, Interval: inner, Seed: seed})
	case "two-level-sr":
		return secref.NewTwoLevel(secref.TwoLevelConfig{
			Lines: lines, Regions: regions,
			InnerInterval: inner, OuterInterval: outer, Seed: seed,
		})
	case "security-rbsg":
		return core.New(core.Config{
			Lines: lines, Regions: regions,
			InnerInterval: inner, OuterInterval: outer,
			Stages: stages, Seed: seed,
		})
	default:
		return nil, fmt.Errorf("unknown scheme %q", name)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "replay:", err)
	os.Exit(1)
}
