package attack_test

import (
	"fmt"

	"securityrbsg/internal/attack"
	"securityrbsg/internal/pcm"
	"securityrbsg/internal/rbsg"
	"securityrbsg/internal/startgap"
	"securityrbsg/internal/wear"
)

// Example runs the Remapping Timing Attack against a small RBSG instance:
// the attacker recovers the logical addresses physically adjacent to its
// target from write latencies alone, then wears the pinned line out.
func Example() {
	scheme := rbsg.MustNew(rbsg.Config{Lines: 256, Regions: 8, Interval: 4, Seed: 5})
	ctrl := wear.MustNewController(pcm.Config{
		Endurance: 500,
	}, scheme)

	a := &attack.RTARBSG{
		Target: ctrl,
		Lines:  256, Regions: 8, Interval: 4,
		Li:     17,
		SeqLen: 6,
		Oracle: func() bool { return ctrl.Bank().Failed() },
	}
	res, err := a.Run()
	if err != nil {
		panic(err)
	}
	fmt.Printf("failed=%v recovered %d adjacent addresses\n", res.Failed, len(a.Sequence()))
	// Output:
	// failed=true recovered 6 adjacent addresses
}

// ExampleRAA shows the baseline attack: without wear leveling a single
// hammered address kills its line in exactly endurance+1 writes.
func ExampleRAA() {
	ctrl := wear.MustNewController(pcm.Config{
		Endurance: 1000,
	}, wear.NewPassthrough(64))
	res := attack.RAA(ctrl, 7, pcm.Mixed, 0)
	fmt.Printf("failed=%v after %d writes\n", res.Failed, res.Writes)
	// Output:
	// failed=true after 1001 writes
}

// ExampleSweepZeros is the smallest demonstration of the observation the
// whole paper is built on: PCM write latency depends on the data, so a
// wear-leveling movement's latency leaks the content of the line being
// moved, and a crafted memory image turns that leak into an address
// oracle.
func ExampleSweepZeros() {
	// A single Start-Gap region of 16 lines, remapping every 4 writes.
	scheme, err := startgap.NewSingle(16, 4)
	if err != nil {
		panic(err)
	}
	ctrl := wear.MustNewController(pcm.Config{
		Endurance: pcm.MaxEndurance, Timing: pcm.DefaultTiming,
	}, scheme)

	fmt.Println("1. The device asymmetry (Fig 1 / Section II-C):")
	fmt.Printf("   write ALL-0: %4d ns (RESET pulses only)\n", ctrl.Write(0, pcm.Zeros))
	fmt.Printf("   write ALL-1: %4d ns (SET pulses, 8x slower)\n", ctrl.Write(0, pcm.Ones))

	// Craft the memory image: every line ALL-0 except line 9's data.
	fmt.Println("2. Craft an image: ALL-0 everywhere, ALL-1 at the secret line (LA 9).")
	attack.SweepZeros(ctrl, 16)
	ctrl.Write(9, pcm.Ones)

	// Hammer any address and watch the remap latencies: every fourth
	// write triggers a gap movement whose cost names the moved content.
	fmt.Println("3. Hammer LA 0 and watch each movement's extra latency:")
	for i := 0; i < 17*4; i++ {
		ns := ctrl.Write(0, pcm.Zeros)
		if extra := ns - 125; extra > 0 {
			content := "an ALL-0 line (read+RESET)"
			if extra >= 1125 {
				content = "an ALL-1 line (read+SET): LA 9 moving"
			}
			fmt.Printf("   write %2d: movement cost %4d ns, moved %s\n", i+1, extra, content)
		}
	}
	// The attacker never read anything: latency alone revealed when the
	// marked line was remapped, the primitive the Remapping Timing Attack
	// builds into full address recovery (see cmd/attackdemo).

	// Output:
	// 1. The device asymmetry (Fig 1 / Section II-C):
	//    write ALL-0:  125 ns (RESET pulses only)
	//    write ALL-1: 1000 ns (SET pulses, 8x slower)
	// 2. Craft an image: ALL-0 everywhere, ALL-1 at the secret line (LA 9).
	// 3. Hammer LA 0 and watch each movement's extra latency:
	//    write  1: movement cost  250 ns, moved an ALL-0 line (read+RESET)
	//    write  5: movement cost  250 ns, moved an ALL-0 line (read+RESET)
	//    write  9: movement cost 1125 ns, moved an ALL-1 line (read+SET): LA 9 moving
	//    write 13: movement cost  250 ns, moved an ALL-0 line (read+RESET)
	//    write 17: movement cost  250 ns, moved an ALL-0 line (read+RESET)
	//    write 21: movement cost  250 ns, moved an ALL-0 line (read+RESET)
	//    write 25: movement cost  250 ns, moved an ALL-0 line (read+RESET)
	//    write 29: movement cost  250 ns, moved an ALL-0 line (read+RESET)
	//    write 33: movement cost  250 ns, moved an ALL-0 line (read+RESET)
	//    write 37: movement cost  250 ns, moved an ALL-0 line (read+RESET)
	//    write 41: movement cost  250 ns, moved an ALL-0 line (read+RESET)
	//    write 45: movement cost  250 ns, moved an ALL-0 line (read+RESET)
	//    write 49: movement cost  250 ns, moved an ALL-0 line (read+RESET)
	//    write 53: movement cost  250 ns, moved an ALL-0 line (read+RESET)
	//    write 57: movement cost  250 ns, moved an ALL-0 line (read+RESET)
	//    write 61: movement cost  250 ns, moved an ALL-0 line (read+RESET)
	//    write 65: movement cost  250 ns, moved an ALL-0 line (read+RESET)
}
