// Command attackdemo runs the Remapping Timing Attack end to end against
// a small RBSG or Security Refresh (one- or two-level) instance and
// narrates what the attacker learns from the timing side channel alone —
// alignment, recovered mapping secrets, and the final wear-out — then
// shows the same attack failing against Security RBSG.
//
// Usage:
//
//	attackdemo [-target rbsg|sr|sr2|security-rbsg] [-lines N] [-regions R]
//	           [-interval ψ] [-endurance E] [-li LA]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"securityrbsg/internal/attack"
	"securityrbsg/internal/core"
	"securityrbsg/internal/pcm"
	"securityrbsg/internal/rbsg"
	"securityrbsg/internal/registry"
	"securityrbsg/internal/secref"
	"securityrbsg/internal/wear"

	_ "securityrbsg/internal/plugins"
)

func main() {
	target := flag.String("target", "rbsg", "victim scheme: rbsg, sr, sr2 or security-rbsg")
	lines := flag.Uint64("lines", 256, "logical lines (power of two)")
	regions := flag.Uint64("regions", 8, "regions (rbsg / security-rbsg)")
	interval := flag.Uint64("interval", 4, "remapping interval ψ")
	endurance := flag.Uint64("endurance", 2000, "per-line write endurance")
	li := flag.Uint64("li", 17, "target logical address")
	flag.Parse()

	bankCfg := pcm.Config{Endurance: *endurance, Timing: pcm.DefaultTiming}

	switch *target {
	case "rbsg":
		demoRBSG(bankCfg, *lines, *regions, *interval, *li)
	case "sr":
		demoSR(bankCfg, *lines, *li)
	case "sr2":
		demoTwoLevelSR(bankCfg, *lines, *regions, *interval)
	case "security-rbsg":
		demoSecurityRBSG(bankCfg, *lines, *regions, *interval, *li)
	default:
		// The demo narrators cover the short names above; point everything
		// else at the registry so the error lists what actually exists
		// (and where the full matrix lives).
		fmt.Fprintf(os.Stderr, "attackdemo: unknown target %q (demo targets: rbsg, sr, sr2, security-rbsg)\n", *target)
		fmt.Fprintf(os.Stderr, "attackdemo: registered schemes: %s — run the full matrix with cmd/tournament\n",
			strings.Join(registry.Default.SchemeNames(), ", "))
		os.Exit(1)
	}
}

func demoTwoLevelSR(bankCfg pcm.Config, lines, regions, interval uint64) {
	fmt.Printf("== exact RTA vs two-level Security Refresh ==\n")
	// Enough headroom that several remapping rounds complete before the
	// flood kills its target.
	if min := 12 * (lines / regions) * interval; bankCfg.Endurance < min {
		bankCfg.Endurance = min
		fmt.Printf("(endurance raised to %d so multiple rounds complete)\n", bankCfg.Endurance)
	}
	outer := 2 * interval
	s := secref.MustNewTwoLevel(secref.TwoLevelConfig{
		Lines: lines, Regions: regions,
		InnerInterval: interval, OuterInterval: outer, Seed: 12,
	})
	c := wear.MustNewController(bankCfg, s)
	a := &attack.RTATwoLevelSRExact{
		Target: c,
		Lines:  lines, Regions: regions,
		InnerInterval: interval, OuterInterval: outer,
		Oracle: func() bool { return c.Bank().Failed() },
	}
	res, err := a.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "attack error:", err)
		os.Exit(1)
	}
	fmt.Printf("victim: N=%d, %d sub-regions, psi_i=%d, psi_o=%d, endurance=%d\n",
		lines, regions, interval, outer, bankCfg.Endurance)
	fmt.Printf("\nper round, the attacker recovered the outer key's sub-region bits from\n")
	fmt.Printf("majority-voted swap latencies and flooded the tracked logical group:\n")
	show := len(a.RecoveredHighDs)
	if show > 8 {
		show = 8
	}
	fmt.Printf("  first recovered key differences (high bits): %v ...\n", a.RecoveredHighDs[:show])
	fmt.Printf("  rounds: %d, detection writes: %d, flood writes: %d\n",
		a.Rounds, a.DetectWrites, a.FloodWrites)
	pa, _, _ := c.Bank().FirstFailure()
	fmt.Printf("\nline %d (sub-region %d) FAILED after %d attacker writes (%.1f ms)\n",
		pa, pa/(lines/regions), res.Writes, float64(res.AttackNs)/1e6)
}

func demoRBSG(bankCfg pcm.Config, lines, regions, interval, li uint64) {
	fmt.Printf("== RTA vs Region-Based Start-Gap ==\n")
	fmt.Printf("victim: N=%d lines, R=%d regions, ψ=%d, endurance=%d\n",
		lines, regions, interval, bankCfg.Endurance)
	s := rbsg.MustNew(rbsg.Config{Lines: lines, Regions: regions, Interval: interval, Seed: 1})
	c := wear.MustNewController(bankCfg, s)

	// The wear-out phase walks one recovered address per region rotation,
	// so the sequence must cover endurance/((n+1)·ψ) rotations plus slack
	// for the rotations the detection phase itself consumes.
	rotation := (lines/regions + 1) * interval
	seqLen := bankCfg.Endurance/rotation + 4
	if max := lines/regions - 1; seqLen > max {
		seqLen = max
	}
	a := &attack.RTARBSG{
		Target: c,
		Lines:  lines, Regions: regions, Interval: interval,
		Li:     li,
		SeqLen: seqLen,
		Oracle: func() bool { return c.Bank().Failed() },
	}
	res, err := a.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "attack error:", err)
		os.Exit(1)
	}
	fmt.Printf("\nphase 1 — alignment: %d writes to pin Li=%d's physical slot\n",
		a.AlignmentWrites, li)
	fmt.Printf("phase 2 — sequence detection: %d writes recovered the %d logical\n",
		a.DetectionWrites, a.SeqLen)
	fmt.Printf("addresses physically preceding Li (via %d-bit sweeps + move latencies):\n", 8)
	fmt.Printf("  recovered: %v\n", a.Sequence())
	truth := groundTruth(s, li, int(a.SeqLen))
	fmt.Printf("  actual:    %v\n", truth)
	match := true
	for i, v := range a.Sequence() {
		if truth[i] != v {
			match = false
		}
	}
	fmt.Printf("  match: %v — the static randomizer cannot hide physical adjacency\n", match)
	pa, _, _ := c.Bank().FirstFailure()
	fmt.Printf("phase 3 — wear-out: %d writes, all landing on physical line %d\n",
		a.WearWrites, pa)
	fmt.Printf("\nline %d FAILED after %d total attacker writes (%.2f ms of device time)\n",
		pa, res.Writes, float64(res.AttackNs)/1e6)

	raa := attack.RAA(wear.MustNewController(bankCfg,
		rbsg.MustNew(rbsg.Config{Lines: lines, Regions: regions, Interval: interval, Seed: 1})),
		li, pcm.Mixed, 0)
	fmt.Printf("for comparison, RAA needs %d writes: RTA is %.1fx faster\n",
		raa.Writes, float64(raa.Writes)/float64(res.Writes))
}

func groundTruth(s *rbsg.Scheme, li uint64, k int) []uint64 {
	n := s.LinesPerRegion()
	ia := s.Intermediate(li)
	region, off := ia/n, ia%n
	out := make([]uint64, 0, k)
	for i := 1; i <= k; i++ {
		prev := (off + n - uint64(i)%n) % n
		out = append(out, s.Randomizer().Decrypt(region*n+prev))
	}
	return out
}

func demoSR(bankCfg pcm.Config, lines, li uint64) {
	fmt.Printf("== RTA vs one-level Security Refresh ==\n")
	const interval = 32
	// Alignment alone can deposit up to a full refresh round on the probe
	// line, so the demo needs the endurance to exceed one round.
	if round := lines * interval; bankCfg.Endurance < round+round/2 {
		bankCfg.Endurance = round + round/2
		fmt.Printf("(endurance raised to %d: one refresh round is %d writes)\n",
			bankCfg.Endurance, round)
	}
	fmt.Printf("victim: N=%d lines, ψ=%d, endurance=%d\n", lines, interval, bankCfg.Endurance)
	s := secref.MustNewOneLevel(lines, interval, 0, nil)
	c := wear.MustNewController(bankCfg, s)
	a := &attack.RTASR{
		Target: c,
		Lines:  lines, Interval: interval,
		Li:     li,
		Oracle: func() bool { return c.Bank().Failed() },
	}
	res, err := a.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "attack error:", err)
		os.Exit(1)
	}
	fmt.Printf("\nalignment: %d writes to catch address 0's swap (2·read+SET+RESET = 1375 ns)\n",
		a.AlignWrites)
	fmt.Printf("key detection: %d writes across %d rounds; recovered keyc⊕keyp values: %#x\n",
		a.DetectWrites, a.RoundsSeen, a.RecoveredDs)
	fmt.Printf("wear-out: %d writes following the pinned line across swaps\n", a.WearWrites)
	pa, _, _ := c.Bank().FirstFailure()
	fmt.Printf("\nline %d FAILED after %d attacker writes (%.2f ms of device time)\n",
		pa, res.Writes, float64(res.AttackNs)/1e6)
}

func demoSecurityRBSG(bankCfg pcm.Config, lines, regions, interval, li uint64) {
	fmt.Printf("== RTA vs Security RBSG (the defense) ==\n")
	s := core.MustNew(core.Config{
		Lines: lines, Regions: regions, InnerInterval: interval,
		OuterInterval: 2 * interval, Stages: 7, Seed: 1,
	})
	c := wear.MustNewController(bankCfg, s)
	budget := uint64(100) * lines * interval
	a := &attack.RTARBSG{
		Target: c,
		Lines:  lines, Regions: regions, Interval: interval,
		Li:        li,
		SeqLen:    8,
		MaxWrites: budget,
		Oracle:    func() bool { return c.Bank().Failed() },
	}
	res, err := a.Run()
	fmt.Printf("victim: Security RBSG, N=%d, R=%d, ψi=%d, ψo=%d, 7-stage DFN\n",
		lines, regions, interval, 2*interval)
	fmt.Printf("running the RBSG timing attack with a %d-write budget...\n\n", budget)
	if err != nil {
		fmt.Printf("attack aborted: %v\n", err)
		fmt.Printf("(the outer DFN's own movements pollute the timing channel the\n")
		fmt.Printf("RBSG attack relies on, so its shadow model breaks down)\n")
	}
	if pa, _, failed := c.Bank().FirstFailure(); failed {
		fmt.Printf("UNEXPECTED: device failed at PA %d\n", pa)
		os.Exit(1)
	}
	fmt.Printf("no line failed after %d attacker writes; even with unlimited budget,\n", res.Writes)
	fmt.Printf("the dynamic Feistel re-keys every remapping round, so any recovered\n")
	fmt.Printf("adjacency goes stale before it can be exploited.\n")
	_, maxWear := c.Bank().MaxWear()
	fmt.Printf("max line wear: %d of %d endurance — wear is spread, not pinned\n",
		maxWear, bankCfg.Endurance)
}
