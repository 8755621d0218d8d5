package core_test

import (
	"fmt"

	"securityrbsg/internal/core"
	"securityrbsg/internal/pcm"
	"securityrbsg/internal/wear"
)

// Example shows the minimal Security RBSG setup: a scheme over a small
// logical space wired to a PCM bank through the controller, which
// translates each address, accounts the asymmetric write latency and
// remaps behind the scenes.
func Example() {
	scheme, err := core.New(core.Config{
		Lines:         1 << 10,
		Regions:       8,
		InnerInterval: 16,
		OuterInterval: 32,
		Stages:        7,
		Seed:          1,
	})
	if err != nil {
		panic(err)
	}
	ctrl, err := wear.NewController(pcm.Config{
		Endurance: 1_000_000,
	}, scheme)
	if err != nil {
		panic(err)
	}
	ctrl.TranslationNs = 10 // the paper's DFN + SRAM lookup latency

	ns := ctrl.Write(42, pcm.Mixed)
	fmt.Printf("write took %d ns (translation 10 + SET 1000)\n", ns)
	content, _ := ctrl.Read(42)
	fmt.Printf("read back %v\n", content)

	// Drive enough writes for remapping rounds to complete: the logical
	// line's physical home keeps moving.
	before := scheme.Translate(42)
	for i := uint64(0); i < 200_000; i++ {
		ctrl.Write(i%(1<<10), pcm.Mixed)
	}
	fmt.Printf("after %d DFN rounds LA 42 moved PA %d → %d\n",
		scheme.Rounds(), before, scheme.Translate(42))
	fmt.Printf("write overhead: %.2f%% (remap device writes per demand write)\n",
		100*ctrl.WriteOverhead())
	// Output:
	// write took 1010 ns (translation 10 + SET 1000)
	// read back MIXED
	// after 7 DFN rounds LA 42 moved PA 69 → 289
	// write overhead: 12.49% (remap device writes per demand write)
}

// ExampleScheme_Translate demonstrates that the mapping is dynamic: after
// enough writes for a remapping round, logical lines move.
func ExampleScheme_Translate() {
	scheme := core.MustNew(core.Config{
		Lines: 256, Regions: 8, InnerInterval: 4, OuterInterval: 4,
		Stages: 7, Seed: 3,
	})
	ctrl := wear.MustNewController(pcm.Config{
		Endurance: pcm.MaxEndurance,
	}, scheme)

	before := scheme.Translate(7)
	for scheme.Rounds() < 1 {
		ctrl.Write(7, pcm.Zeros)
	}
	after := scheme.Translate(7)
	fmt.Println("moved:", before != after)
	// Output:
	// moved: true
}
