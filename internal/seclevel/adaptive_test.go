package seclevel_test

import (
	"reflect"
	"testing"

	"securityrbsg/internal/core"
	"securityrbsg/internal/detector"
	"securityrbsg/internal/pcm"
	"securityrbsg/internal/registry"
	"securityrbsg/internal/schemetest"
	"securityrbsg/internal/seclevel"
	"securityrbsg/internal/wear"

	_ "securityrbsg/internal/plugins"
)

// smallLoop builds the closed loop on the small escalation geometry the
// core tests use: 256 lines in 8 regions with short intervals so rounds
// close every ~1.3k writes, and a 128-write detector window whose alarm
// limit (share 0.5 → 64 writes/region/window) a single-address hammer
// crosses every window while uniform traffic (≈16/region/window) never
// does.
func smallLoop(t *testing.T, seed uint64) (*seclevel.Adaptive, *wear.Controller) {
	t.Helper()
	a, err := seclevel.NewAdaptive(seclevel.AdaptiveConfig{
		Scheme: core.Config{
			Lines: 256, Regions: 8,
			InnerInterval: 3, OuterInterval: 5,
			Stages: 4, Seed: seed,
		},
		Detector: detector.Config{Window: 128},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrl := wear.MustNewController(pcm.Config{
		Endurance: 1_000_000, Timing: pcm.DefaultTiming,
	}, a)
	return a, ctrl
}

func TestAdaptiveEscalatesUnderHammer(t *testing.T) {
	a, ctrl := smallLoop(t, 11)
	if a.Level() != 4 {
		t.Fatalf("boot level %d, want the scheme's construction stage count 4", a.Level())
	}
	for i := 0; i < 20_000; i++ {
		ctrl.Write(13, pcm.Mixed)
	}
	if a.Controller().Raises() < 2 {
		t.Fatalf("hammer produced only %d raises, want sustained escalation\n%s",
			a.Controller().Raises(), a.Controller().TraceString())
	}
	if a.Level() <= 4 {
		t.Fatalf("level %d after 20k hammer writes, want above the boot level 4\n%s",
			a.Level(), a.Controller().TraceString())
	}
	first, ok := a.FirstRaiseWrite()
	if !ok {
		t.Fatal("FirstRaiseWrite not recorded despite raises")
	}
	alarm, alarmOK := a.FirstAlarmWrite()
	if !alarmOK {
		t.Fatal("monitor never alarmed under the hammer")
	}
	if first <= alarm {
		t.Fatalf("first raise at write %d precedes first alarm at %d — the controller cannot outrun its own signal", first, alarm)
	}
	if first > 20_000 {
		t.Fatalf("first raise at write %d, outside the driven stream", first)
	}
	// The level change is a real remapping change, not just bookkeeping.
	if err := schemetest.CheckBijection(ctrl.Scheme()); err != nil {
		t.Fatal(err)
	}
	t.Logf("first alarm at write %d, first raise at %d, final level %d\n%s",
		alarm, first, a.Level(), a.Controller().TraceString())
}

func TestAdaptiveStaysDownUnderBenign(t *testing.T) {
	a, ctrl := smallLoop(t, 12)
	for i := 0; i < 40_000; i++ {
		ctrl.Write(uint64(i)%256, pcm.Mixed)
	}
	if raises := a.Controller().Raises(); raises != 0 {
		t.Fatalf("uniform traffic produced %d raises\n%s", raises, a.Controller().TraceString())
	}
	if _, ok := a.FirstRaiseWrite(); ok {
		t.Fatal("FirstRaiseWrite set without any raise")
	}
	// Quiet traffic relaxes to the clamp floor (MinLevel defaults to 3).
	if a.Level() != 3 {
		t.Fatalf("benign traffic settled at level %d, want MinLevel 3\n%s",
			a.Level(), a.Controller().TraceString())
	}
	if err := schemetest.CheckBijection(ctrl.Scheme()); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptiveRejectsMigrationMove(t *testing.T) {
	_, err := seclevel.NewAdaptive(seclevel.AdaptiveConfig{
		Scheme: core.Config{
			Lines: 256, Regions: 8,
			InnerInterval: 3, OuterInterval: 5,
			Stages: 4, Migration: core.MigrationMove,
		},
	})
	if err == nil {
		t.Fatal("MigrationMove must be rejected: the parked line has no monitor region")
	}
}

// loopState snapshots everything the batched and naive drives must agree
// on: scheme state, controller trace, monitor signal, and the physical
// wear the bank accumulated.
type loopState struct {
	Level        int
	Rounds       uint64
	StageChanges uint64
	Trace        string
	Raises       uint64
	Lowers       uint64
	Alarms       uint64
	Windows      uint64
	Wear         []uint32
}

func snapshot(a *seclevel.Adaptive, ctrl *wear.Controller) loopState {
	return loopState{
		Level:        a.Level(),
		Rounds:       a.Rounds(),
		StageChanges: a.StageChanges(),
		Trace:        a.Controller().TraceString(),
		Raises:       a.Controller().Raises(),
		Lowers:       a.Controller().Lowers(),
		Alarms:       a.Monitor().Alarms(),
		Windows:      a.Monitor().RateWindow().Windows(),
		Wear:         ctrl.Bank().WearSnapshot(nil),
	}
}

// TestAdaptiveBatchedMatchesNaive pins the FastForwarder contract with
// the loop closed: driving the hammer through the controller's batched
// WriteRun path (which skips movement-free writes in bulk) must be
// bit-identical — decisions, levels, alarms and wear — to the naive
// per-write loop. This is what keeps the exact tier's accelerated cells
// honest once the controller is in the loop.
func TestAdaptiveBatchedMatchesNaive(t *testing.T) {
	na, nctrl := smallLoop(t, 21)
	ba, bctrl := smallLoop(t, 21)

	phase := func(label string) {
		t.Helper()
		ns, bs := snapshot(na, nctrl), snapshot(ba, bctrl)
		if !reflect.DeepEqual(ns, bs) {
			t.Fatalf("%s: batched drive diverged from naive\nnaive:   %+v\nbatched: %+v", label, ns, bs)
		}
	}

	// Phase 1: hammer one address — the batched side in one WriteRun.
	for i := 0; i < 8_000; i++ {
		nctrl.Write(13, pcm.Mixed)
	}
	if issued, _ := bctrl.WriteRun(13, pcm.Mixed, 8_000, false, nil); issued != 8_000 {
		t.Fatalf("batched hammer issued %d of 8000 writes", issued)
	}
	phase("after hammer")

	// Phase 2: uniform benign traffic, per-write on both sides.
	for i := 0; i < 6_000; i++ {
		nctrl.Write(uint64(i)%256, pcm.Mixed)
		bctrl.Write(uint64(i)%256, pcm.Mixed)
	}
	phase("after benign sweep")

	// Phase 3: re-escalation, batched in uneven chunks.
	for i := 0; i < 6_000; i++ {
		nctrl.Write(77, pcm.Mixed)
	}
	for _, chunk := range []uint64{1, 499, 2_500, 3_000} {
		if issued, _ := bctrl.WriteRun(77, pcm.Mixed, chunk, false, nil); issued != chunk {
			t.Fatalf("batched chunk issued %d of %d writes", issued, chunk)
		}
	}
	phase("after re-escalation")

	if na.Controller().Raises() == 0 || na.Controller().Lowers() == 0 {
		t.Fatalf("scenario exercised raises=%d lowers=%d — want both directions",
			na.Controller().Raises(), na.Controller().Lowers())
	}
	if err := schemetest.CheckBijection(nctrl.Scheme()); err != nil {
		t.Fatal(err)
	}
	if err := schemetest.CheckBijection(bctrl.Scheme()); err != nil {
		t.Fatal(err)
	}
}

// TestAdaptiveWriteRunZeroAlloc pins the closed loop's remap-round
// boundary at zero allocations: once a warm-up round has built the
// second DFN table, a WriteRun across round boundaries — each consults
// the controller with the monitor's rolling alarm rate — must not
// allocate. Every srbsg-adaptive tournament cell and memctld bank runs
// this path behind the wear.Scheme interface, where hotpathalloc cannot
// follow it.
func TestAdaptiveWriteRunZeroAlloc(t *testing.T) {
	s, err := registry.Default.Scheme("srbsg-adaptive")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := s.New(s.Defaults(registry.Config{Lines: 1 << 10, Seed: 5}))
	if err != nil {
		t.Fatal(err)
	}
	a := inst.(*seclevel.Adaptive)
	ctrl := wear.MustNewController(pcm.Config{
		Endurance: 100_000_000, Timing: pcm.DefaultTiming,
	}, a)
	ctrl.WriteRun(7, pcm.Ones, a.WritesPerRound(), false, nil) // warm-up round
	rounds := a.Rounds()
	const n = 1 << 18 // about two rounds per call
	allocs := testing.AllocsPerRun(2, func() { ctrl.WriteRun(7, pcm.Ones, n, false, nil) })
	if crossed := a.Rounds() - rounds; crossed < 4 {
		t.Fatalf("the measured runs crossed %d round boundaries, want ≥ 4", crossed)
	}
	if allocs != 0 {
		t.Fatalf("WriteRun on srbsg-adaptive allocates %.1f times per %d writes, want 0", allocs, n)
	}
}

// TestAdaptiveTraceReplays pins rerun determinism: the same seeded
// scenario replayed from scratch yields a byte-identical decision trace
// and identical closed-loop state.
func TestAdaptiveTraceReplays(t *testing.T) {
	run := func() loopState {
		a, ctrl := smallLoop(t, 31)
		for i := 0; i < 10_000; i++ {
			ctrl.Write(13, pcm.Mixed)
		}
		for i := 0; i < 8_000; i++ {
			ctrl.Write(uint64(i)%256, pcm.Mixed)
		}
		return snapshot(a, ctrl)
	}
	first, second := run(), run()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("rerun diverged\nfirst:  %+v\nsecond: %+v", first, second)
	}
	if first.Trace == "" {
		t.Fatal("scenario produced no decisions — nothing replayed")
	}
}

// TestAdaptiveCellWorkerInvariance runs the registered srbsg-adaptive
// scheme through the real exact-tier cell path (registry + accelerator)
// with different in-cell worker counts and across reruns: every
// deterministic metric, including the defender's first-alarm write,
// must be identical.
func TestAdaptiveCellWorkerInvariance(t *testing.T) {
	cell := func(workers int) map[string]float64 {
		out, err := registry.Default.RunExact("srbsg-adaptive", "raa", registry.Config{
			Lines: 256, Regions: 8,
			InnerInterval: 3, OuterInterval: 5, Stages: 4,
			Endurance: 1_000_000, MaxWrites: 30_000,
			Seed: 9, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if out.Result.Failed {
			t.Fatalf("raa killed a line within %d writes at endurance 1e6", out.Result.Writes)
		}
		if !out.FirstAlarmOK {
			t.Fatal("adaptive cell reported no first-alarm write under raa")
		}
		return out.Metrics()
	}
	base := cell(1)
	for _, workers := range []int{1, 8} {
		if got := cell(workers); !reflect.DeepEqual(base, got) {
			t.Fatalf("metrics vary with workers=%d\nbase: %v\ngot:  %v", workers, base, got)
		}
	}
}
