package wear_test

import (
	"fmt"

	"securityrbsg/internal/core"
	"securityrbsg/internal/pcm"
	"securityrbsg/internal/rbsg"
	"securityrbsg/internal/secref"
	"securityrbsg/internal/startgap"
	"securityrbsg/internal/stats"
	"securityrbsg/internal/tablewl"
	"securityrbsg/internal/wear"
	"securityrbsg/internal/workload"
)

// Example_leveling shows the original, non-adversarial motivation for
// wear leveling: real applications write unevenly (here a zipf-skewed
// stream), so a few hot lines would die long before the rest of the
// device. It measures how much lifetime each translation layer recovers
// and what it costs in write overhead.
//
// Rotation-based leveling only works when the Line Vulnerability Factor
// ((region+1)·ψ writes before a hot line moves) is far below the
// endurance; at paper scale E/LVF ≈ 190. The geometry below keeps that
// ratio healthy at example size.
func Example_leveling() {
	const lines, endurance = 256, 5000
	schemes := []struct {
		label string
		new   func() (wear.Scheme, error)
	}{
		{"none", func() (wear.Scheme, error) { return wear.NewPassthrough(lines), nil }},
		{"start-gap ψ=4", func() (wear.Scheme, error) { return startgap.NewSingle(lines, 4) }},
		{"table-wl ψ=16", func() (wear.Scheme, error) {
			return tablewl.New(tablewl.Config{Lines: lines, Interval: 16})
		}},
		{"rbsg 16r ψ=8", func() (wear.Scheme, error) {
			return rbsg.New(rbsg.Config{Lines: lines, Regions: 16, Interval: 8, Seed: 1})
		}},
		{"two-level-sr", func() (wear.Scheme, error) {
			return secref.NewTwoLevel(secref.TwoLevelConfig{
				Lines: lines, Regions: 16, InnerInterval: 8, OuterInterval: 16, Seed: 1,
			})
		}},
		{"security-rbsg S=7", func() (wear.Scheme, error) {
			return core.New(core.Config{
				Lines: lines, Regions: 16, InnerInterval: 8,
				OuterInterval: 16, Stages: 7, Seed: 1,
			})
		}},
	}

	ideal := float64(lines * endurance)
	fmt.Printf("zipf(1.2) writes over %d lines, endurance %d: ideal lifetime %.0f writes\n",
		lines, endurance, ideal)
	fmt.Printf("%-18s %14s %10s %9s\n", "scheme", "writes to fail", "of ideal", "overhead")
	for _, s := range schemes {
		scheme, err := s.new()
		if err != nil {
			panic(err)
		}
		ctrl := wear.MustNewController(pcm.Config{
			Endurance: endurance, Timing: pcm.DefaultTiming,
		}, scheme)
		z := workload.NewZipf(lines, 1.2, 7)
		rng := stats.NewRNG(3)
		var writes uint64
		for !ctrl.Bank().Failed() {
			la := z.Next()
			// Occasional uniform traffic mixed in, like a real working set.
			if rng.Float64() < 0.2 {
				la = rng.Uint64n(lines)
			}
			ctrl.Write(la, pcm.Mixed)
			writes++
		}
		fmt.Printf("%-18s %14d %9.1f%% %8.2f%%\n",
			s.label, writes, 100*float64(writes)/ideal, 100*ctrl.WriteOverhead())
	}
	// Output:
	// zipf(1.2) writes over 256 lines, endurance 5000: ideal lifetime 1280000 writes
	// scheme             writes to fail   of ideal  overhead
	// none                        24929       1.9%     0.00%
	// start-gap ψ=4              973407      76.0%    25.00%
	// table-wl ψ=16             1134305      88.6%    12.50%
	// rbsg 16r ψ=8               312118      24.4%    12.50%
	// two-level-sr               893079      69.8%    18.01%
	// security-rbsg S=7          887038      69.3%    24.94%
}
