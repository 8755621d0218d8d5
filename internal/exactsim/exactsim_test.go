// Differential tests: every accelerated path in the exact tier —
// Controller.WriteRun batching, the attacks' epoch fast-forward helpers
// and the parallel sub-region sweep kernel — is compared observable by
// observable against the naive write-by-write simulation. "Identical"
// here means byte-identical wear arrays, content, device clock, failure
// record, controller books, scheme translations and attacker-visible
// results/diagnostics.
package exactsim_test

import (
	"fmt"
	"slices"
	"testing"

	"securityrbsg/internal/attack"
	"securityrbsg/internal/core"
	"securityrbsg/internal/exactsim"
	"securityrbsg/internal/pcm"
	"securityrbsg/internal/rbsg"
	"securityrbsg/internal/registry"
	"securityrbsg/internal/secref"
	"securityrbsg/internal/wear"

	_ "securityrbsg/internal/plugins"
)

func bankCfg(endurance uint64) pcm.Config {
	return pcm.Config{Endurance: endurance, Timing: pcm.DefaultTiming}
}

// noFF strips the wear.FastForwarder capability from a scheme: a
// controller built over it always runs the naive write-by-write loop,
// giving the reference side of every differential.
type noFF struct{ wear.Scheme }

// naiveTarget exposes a controller as a bare attack.Target, hiding the
// BatchTarget/SweepTarget capabilities so the attacks take their naive
// per-write code paths.
type naiveTarget struct{ c *wear.Controller }

func (t naiveTarget) Write(la uint64, content pcm.Content) uint64 { return t.c.Write(la, content) }
func (t naiveTarget) Read(la uint64) (pcm.Content, uint64)        { return t.c.Read(la) }

// books is every scalar observable of a controller+bank pair.
type books struct {
	totalWrites, totalReads, elapsedNs uint64
	failedLines, maxPA, maxWear        uint64
	failed, ffOK                       bool
	ffPA, ffNs                         uint64
	demandWrites, remapEvents, remapNs uint64
}

func snapshotBooks(c *wear.Controller) books {
	b := c.Bank()
	var s books
	s.totalWrites, s.totalReads, s.elapsedNs = b.TotalWrites(), b.TotalReads(), b.ElapsedNs()
	s.failedLines, s.failed = b.FailedLines(), b.Failed()
	s.maxPA, s.maxWear = b.MaxWear()
	s.ffPA, s.ffNs, s.ffOK = b.FirstFailure()
	s.demandWrites, s.remapEvents, s.remapNs = c.DemandWrites(), c.RemapEvents(), c.RemapNs()
	return s
}

// compareControllers asserts the two simulations are bit-identical in
// every observable: wear array, line contents, clocks, failure records,
// controller books and the full logical→physical translation.
func compareControllers(t *testing.T, name string, naive, fast *wear.Controller) {
	t.Helper()
	bn, bf := naive.Bank(), fast.Bank()
	if bn.Lines() != bf.Lines() {
		t.Fatalf("%s: physical lines %d vs %d", name, bn.Lines(), bf.Lines())
	}
	wn, wf := bn.WearSnapshot(nil), bf.WearSnapshot(nil)
	for pa := range wn {
		if wn[pa] != wf[pa] {
			t.Fatalf("%s: wear[%d] naive %d, fast %d", name, pa, wn[pa], wf[pa])
		}
	}
	for pa := uint64(0); pa < bn.Lines(); pa++ {
		if bn.Peek(pa) != bf.Peek(pa) {
			t.Fatalf("%s: content[%d] naive %v, fast %v", name, pa, bn.Peek(pa), bf.Peek(pa))
		}
	}
	if got, want := snapshotBooks(fast), snapshotBooks(naive); got != want {
		t.Fatalf("%s: observables diverge\n naive %+v\n fast  %+v", name, want, got)
	}
	n := naive.Scheme().LogicalLines()
	for la := uint64(0); la < n; la++ {
		if pn, pf := naive.Scheme().Translate(la), fast.Scheme().Translate(la); pn != pf {
			t.Fatalf("%s: Translate(%d) naive %d, fast %d", name, la, pn, pf)
		}
	}
}

func compareResults(t *testing.T, name string, naive, fast attack.Result) {
	t.Helper()
	if naive != fast {
		t.Fatalf("%s: attack results diverge\n naive %+v\n fast  %+v", name, naive, fast)
	}
}

// exactSchemes returns every registry.Default scheme with Caps.Exact:
// the exact tier's whole field, so a newly registered scheme joins the
// differentials below without an edit here.
func exactSchemes(tb testing.TB) []*registry.Scheme {
	tb.Helper()
	var out []*registry.Scheme
	for _, name := range registry.Default.SchemeNames() {
		s, err := registry.Default.Scheme(name)
		if err != nil {
			tb.Fatal(err)
		}
		if s.Caps.Exact {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		tb.Fatal("registry lists no exact schemes")
	}
	return out
}

// twin builds s over cfg, resolved through its Defaults, as a perfect
// pair: a naive controller over an instance stripped of the fast path
// and a fast controller over an identically keyed instance. It first
// requires wear.FastForwarder of the instance: without it
// Controller.WriteRun falls back to its write-by-write loop, and every
// tournament cell of the scheme pays for that silently.
func twin(tb testing.TB, s *registry.Scheme, cfg registry.Config) (naive, fast *wear.Controller) {
	tb.Helper()
	if s.Defaults != nil {
		cfg = s.Defaults(cfg)
	}
	mk := func() wear.Scheme {
		inst, err := s.New(cfg)
		if err != nil {
			tb.Fatalf("scheme %s: %v", s.Name, err)
		}
		return inst
	}
	inst := mk()
	if _, ok := inst.(wear.FastForwarder); !ok {
		tb.Fatalf("scheme %s (%T) does not implement wear.FastForwarder; every exact scheme must", s.Name, inst)
	}
	pc := bankCfg(cfg.Endurance)
	return wear.MustNewController(pc, noFF{mk()}), wear.MustNewController(pc, inst)
}

// TestAdvancePastEpochPanics pins the other half of the contract for
// every exact scheme: on a fresh instance, advancing one write past the
// epoch Epoch reports must panic rather than silently book a write whose
// movements the batch would skip.
func TestAdvancePastEpochPanics(t *testing.T) {
	for _, s := range exactSchemes(t) {
		t.Run(s.Name, func(t *testing.T) {
			_, c := twin(t, s, registry.Config{Lines: 1 << 10, Endurance: 1000, Seed: 3})
			ff := c.Scheme().(wear.FastForwarder)
			_, k := ff.Epoch(5)
			if k == ^uint64(0) {
				t.Skipf("%s never remaps: its epoch has no end to run past", s.Name)
			}
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: Advance(5, %d) past an epoch of %d did not panic", s.Name, k+1, k)
				}
			}()
			ff.Advance(5, k+1, c.Bank())
		})
	}
}

// TestDifferentialRAA drives the repeated-address attack through the
// batched WriteRun fast path and through the naive loop on twin
// controllers for every exact scheme.
func TestDifferentialRAA(t *testing.T) {
	for _, s := range exactSchemes(t) {
		t.Run(s.Name, func(t *testing.T) {
			const endurance, budget = 20_000, 3_000_000
			cn, cf := twin(t, s, registry.Config{Lines: 1 << 10, Endurance: endurance, Seed: 11})
			rn := attack.RAA(cn, 5, pcm.Mixed, budget)
			rf := attack.RAA(cf, 5, pcm.Mixed, budget)
			compareResults(t, s.Name, rn, rf)
			compareControllers(t, s.Name, cn, cf)
			t.Logf("%s: %d writes, failed=%v", s.Name, rn.Writes, rn.Failed)
		})
	}
}

// TestDifferentialBPA does the same for the birthday-paradox attack,
// whose hammer stints exercise WriteRun across many different addresses.
func TestDifferentialBPA(t *testing.T) {
	for _, s := range exactSchemes(t) {
		t.Run(s.Name, func(t *testing.T) {
			const endurance, hammer, budget = 2500, 2500, 1_200_000
			cn, cf := twin(t, s, registry.Config{Lines: 1 << 10, Endurance: endurance, Seed: 12})
			rn := attack.BPA(cn, hammer, pcm.Ones, 99, budget)
			rf := attack.BPA(cf, hammer, pcm.Ones, 99, budget)
			compareResults(t, s.Name, rn, rf)
			compareControllers(t, s.Name, cn, cf)
			t.Logf("%s: %d writes, failed=%v", s.Name, rn.Writes, rn.Failed)
		})
	}
}

// TestDifferentialAIA does the same for the address-inference attack,
// which hammers one frozen stretch at a time and re-infers the victim's
// occupant only after it. The victims are line 0 (the tournament's), a
// middle line and the last physical line, which the Start-Gap family
// boots as a gap or spare, so the attack starts on the unmapped-victim
// path; the budgets run to failure and stop mid-stretch.
func TestDifferentialAIA(t *testing.T) {
	const endurance = 2000
	cfg := registry.Config{Lines: 1 << 10, Endurance: endurance, Seed: 13}
	for _, s := range exactSchemes(t) {
		t.Run(s.Name, func(t *testing.T) {
			probe, _ := twin(t, s, cfg)
			last := probe.Scheme().PhysicalLines() - 1
			for _, victim := range []uint64{0, 513, last} {
				for _, budget := range []uint64{0, 1777} {
					name := fmt.Sprintf("%s victim=%d budget=%d", s.Name, victim, budget)
					cn, cf := twin(t, s, cfg)
					rn := attack.AIA(cn, victim, pcm.Mixed, budget)
					rf := attack.AIA(cf, victim, pcm.Mixed, budget)
					compareResults(t, name, rn, rf)
					compareControllers(t, name, cn, cf)
					if budget == 0 && !rn.Failed {
						t.Fatalf("%s: an unbounded run ended without a failure", name)
					}
				}
			}
		})
	}
}

// TestDifferentialRTAOnRBSG runs the full Remapping Timing Attack against
// RBSG at 2^10–2^14 lines: the fast side uses every acceleration at once
// (parallel sweep kernel, batched hammer epochs, batched wear-out), and
// every attacker observable and device observable must match the naive
// run bit for bit.
func TestDifferentialRTAOnRBSG(t *testing.T) {
	cases := []struct {
		lines, regions, interval, endurance, seqLen uint64
	}{
		// Endurance scales with region size so alignment and detection
		// complete before the pinned line dies — the differential must
		// exercise the sweep kernel and the batched hammer epochs, not
		// just the alignment phase — and SeqLen covers the paper's
		// n = ceil(E / ((N/R)·ψ)) so the wear phase can rotate through
		// enough predecessors to reach endurance.
		{1 << 10, 8, 16, 2500, 6},
		{1 << 12, 16, 32, 60_000, 10},
		{1 << 14, 32, 64, 300_000, 12},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("lines=%d", tc.lines)
		t.Run(name, func(t *testing.T) {
			if tc.lines >= 1<<14 && testing.Short() {
				t.Skip("full-size differential skipped in -short")
			}
			mk := func() wear.Scheme {
				return rbsg.MustNew(rbsg.Config{
					Lines: tc.lines, Regions: tc.regions, Interval: tc.interval, Seed: 31,
				})
			}
			cn := wear.MustNewController(bankCfg(tc.endurance), noFF{mk()})
			cf := wear.MustNewController(bankCfg(tc.endurance), mk())
			an := &attack.RTARBSG{
				Target: naiveTarget{cn},
				Lines:  tc.lines, Regions: tc.regions, Interval: tc.interval,
				Li: 17, SeqLen: tc.seqLen,
				Oracle: func() bool { return cn.Bank().Failed() },
			}
			af := &attack.RTARBSG{
				Target: exactsim.NewFastTarget(cf, 4),
				Lines:  tc.lines, Regions: tc.regions, Interval: tc.interval,
				Li: 17, SeqLen: tc.seqLen,
				Oracle: func() bool { return cf.Bank().Failed() },
			}
			rn, errN := an.Run()
			rf, errF := af.Run()
			if (errN == nil) != (errF == nil) {
				t.Fatalf("errors diverge: naive %v, fast %v", errN, errF)
			}
			compareResults(t, name, rn, rf)
			if an.AlignWrites != af.AlignWrites || an.DetectWrites != af.DetectWrites ||
				an.WearWrites != af.WearWrites {
				t.Fatalf("diagnostics diverge: naive align=%d detect=%d wear=%d, fast align=%d detect=%d wear=%d",
					an.AlignWrites, an.DetectWrites, an.WearWrites,
					af.AlignWrites, af.DetectWrites, af.WearWrites)
			}
			if !slices.Equal(an.Sequence(), af.Sequence()) {
				t.Fatalf("recovered sequences diverge: naive %v, fast %v", an.Sequence(), af.Sequence())
			}
			compareControllers(t, name, cn, cf)
			if !rn.Failed {
				t.Fatal("the attack should wear out the device at this endurance")
			}
			if an.DetectWrites == 0 {
				t.Fatal("the device died before detection: the differential never reached the sweep kernel")
			}
			t.Logf("%s: %d writes to failure (align %d, detect %d, wear %d)",
				name, rn.Writes, an.AlignWrites, an.DetectWrites, an.WearWrites)
		})
	}
}

// TestDifferentialRTAOnSecurityRBSG is the resistance case: the attack's
// shadow model is wrong for Security RBSG, so real movements fire in the
// middle of batched hammer runs. The batched attack must still observe
// exactly what the naive one does (only the final write of each probe
// quantum), write for write.
func TestDifferentialRTAOnSecurityRBSG(t *testing.T) {
	const budget = 150_000
	mk := func() wear.Scheme {
		return core.MustNew(core.Config{
			Lines: 1 << 10, Regions: 16, InnerInterval: 8, OuterInterval: 16,
			Stages: 5, Seed: 13,
		})
	}
	cn := wear.MustNewController(bankCfg(100_000_000), noFF{mk()})
	cf := wear.MustNewController(bankCfg(100_000_000), mk())
	an := &attack.RTARBSG{
		Target: naiveTarget{cn},
		Lines:  1 << 10, Regions: 16, Interval: 8,
		Li: 17, SeqLen: 4, MaxWrites: budget,
		Oracle: func() bool { return cn.Bank().Failed() },
	}
	af := &attack.RTARBSG{
		Target: exactsim.NewFastTarget(cf, 4),
		Lines:  1 << 10, Regions: 16, Interval: 8,
		Li: 17, SeqLen: 4, MaxWrites: budget,
		Oracle: func() bool { return cf.Bank().Failed() },
	}
	rn, errN := an.Run()
	rf, errF := af.Run()
	if (errN == nil) != (errF == nil) || (errN != nil && errN.Error() != errF.Error()) {
		t.Fatalf("errors diverge: naive %v, fast %v", errN, errF)
	}
	compareResults(t, "security-rbsg", rn, rf)
	compareControllers(t, "security-rbsg", cn, cf)
	if rn.Failed {
		t.Fatal("Security RBSG should survive the budget")
	}
}

// TestDifferentialRTAOnSR runs the one-level Security Refresh timing
// attack naive vs batched, including the recovered round-key record.
func TestDifferentialRTAOnSR(t *testing.T) {
	const lines, interval, endurance = 1 << 10, 32, 9000
	mk := func() wear.Scheme { return secref.MustNewOneLevel(lines, interval, 0, nil) }
	cn := wear.MustNewController(bankCfg(endurance), noFF{mk()})
	cf := wear.MustNewController(bankCfg(endurance), mk())
	an := &attack.RTASR{
		Target: naiveTarget{cn},
		Lines:  lines, Interval: interval, Li: 33,
		Oracle: func() bool { return cn.Bank().Failed() },
	}
	af := &attack.RTASR{
		Target: exactsim.NewFastTarget(cf, 4),
		Lines:  lines, Interval: interval, Li: 33,
		Oracle: func() bool { return cf.Bank().Failed() },
	}
	rn, errN := an.Run()
	rf, errF := af.Run()
	if (errN == nil) != (errF == nil) {
		t.Fatalf("errors diverge: naive %v, fast %v", errN, errF)
	}
	compareResults(t, "sr", rn, rf)
	if an.AlignWrites != af.AlignWrites || an.DetectWrites != af.DetectWrites ||
		an.WearWrites != af.WearWrites || an.RoundsSeen != af.RoundsSeen {
		t.Fatalf("diagnostics diverge: naive %+v, fast %+v",
			[]uint64{an.AlignWrites, an.DetectWrites, an.WearWrites, an.RoundsSeen},
			[]uint64{af.AlignWrites, af.DetectWrites, af.WearWrites, af.RoundsSeen})
	}
	if !slices.Equal(an.RecoveredDs, af.RecoveredDs) {
		t.Fatalf("recovered key differences diverge: naive %v, fast %v", an.RecoveredDs, af.RecoveredDs)
	}
	compareControllers(t, "sr", cn, cf)
	if !rn.Failed {
		t.Fatal("the attack should wear out the device at this endurance")
	}
	t.Logf("sr: %d writes to failure over %d rounds", rn.Writes, an.RoundsSeen)
}

// TestDifferentialRTAOnTwoLevelSR runs the oracle-free two-level attack
// naive vs batched.
func TestDifferentialRTAOnTwoLevelSR(t *testing.T) {
	const lines, regions, inner, outer, endurance = 1 << 10, 8, 4, 8, 6000
	mk := func() wear.Scheme {
		return secref.MustNewTwoLevel(secref.TwoLevelConfig{
			Lines: lines, Regions: regions,
			InnerInterval: inner, OuterInterval: outer, Seed: 12,
		})
	}
	cn := wear.MustNewController(bankCfg(endurance), noFF{mk()})
	cf := wear.MustNewController(bankCfg(endurance), mk())
	an := &attack.RTATwoLevelSRExact{
		Target: naiveTarget{cn},
		Lines:  lines, Regions: regions, InnerInterval: inner, OuterInterval: outer,
		Oracle: func() bool { return cn.Bank().Failed() },
	}
	af := &attack.RTATwoLevelSRExact{
		Target: exactsim.NewFastTarget(cf, 4),
		Lines:  lines, Regions: regions, InnerInterval: inner, OuterInterval: outer,
		Oracle: func() bool { return cf.Bank().Failed() },
	}
	rn, errN := an.Run()
	rf, errF := af.Run()
	if (errN == nil) != (errF == nil) {
		t.Fatalf("errors diverge: naive %v, fast %v", errN, errF)
	}
	compareResults(t, "two-level-sr", rn, rf)
	if an.DetectWrites != af.DetectWrites || an.WearWrites != af.WearWrites || an.Rounds != af.Rounds {
		t.Fatalf("diagnostics diverge: naive detect=%d flood=%d rounds=%d, fast detect=%d flood=%d rounds=%d",
			an.DetectWrites, an.WearWrites, an.Rounds, af.DetectWrites, af.WearWrites, af.Rounds)
	}
	if !slices.Equal(an.RecoveredHighDs, af.RecoveredHighDs) {
		t.Fatalf("recovered key bits diverge: naive %v, fast %v", an.RecoveredHighDs, af.RecoveredHighDs)
	}
	compareControllers(t, "two-level-sr", cn, cf)
	if !rn.Failed {
		t.Fatal("the attack should wear out the device at this endurance")
	}
}

// TestParallelSweepMatchesNaive compares the parallel sub-region kernel
// directly against the write-by-write sweep, across several consecutive
// sweeps so the interval phases straddle gap movements.
func TestParallelSweepMatchesNaive(t *testing.T) {
	const lines = 1 << 12
	mk := func() wear.Scheme {
		return rbsg.MustNew(rbsg.Config{Lines: lines, Regions: 16, Interval: 32, Seed: 21})
	}
	cn := wear.MustNewController(bankCfg(50_000), noFF{mk()})
	cf := wear.MustNewController(bankCfg(50_000), mk())
	ft := exactsim.NewFastTarget(cf, 3)
	for i, bit := range []int{-1, 0, 3, 11, -1} {
		var wN, nsN uint64
		if bit < 0 {
			wN, nsN = attack.SweepZeros(naiveTarget{cn}, lines)
		} else {
			wN, nsN = attack.SweepPattern(naiveTarget{cn}, lines, uint(bit))
		}
		wF, nsF, ok := ft.Sweep(bit)
		if !ok {
			t.Fatalf("sweep %d (bit %d): kernel declined far from end of life", i, bit)
		}
		if wN != wF || nsN != nsF {
			t.Fatalf("sweep %d (bit %d): naive (%d writes, %d ns), parallel (%d writes, %d ns)",
				i, bit, wN, nsN, wF, nsF)
		}
		compareControllers(t, fmt.Sprintf("sweep %d (bit %d)", i, bit), cn, cf)
	}
}

// TestParallelSweepWorkerCountInvariance: the kernel's result must not
// depend on how many workers the regions shard across.
func TestParallelSweepWorkerCountInvariance(t *testing.T) {
	const lines = 1 << 11
	mk := func() *wear.Controller {
		return wear.MustNewController(bankCfg(50_000),
			rbsg.MustNew(rbsg.Config{Lines: lines, Regions: 16, Interval: 32, Seed: 22}))
	}
	ref := mk()
	refFT := exactsim.NewFastTarget(ref, 1)
	for s := 0; s < 4; s++ {
		if _, _, ok := refFT.Sweep(s - 1); !ok {
			t.Fatalf("reference sweep %d declined", s)
		}
	}
	for _, workers := range []int{2, 5, 16, 64} {
		c := mk()
		ft := exactsim.NewFastTarget(c, workers)
		for s := 0; s < 4; s++ {
			if _, _, ok := ft.Sweep(s - 1); !ok {
				t.Fatalf("workers=%d sweep %d declined", workers, s)
			}
		}
		compareControllers(t, fmt.Sprintf("workers=%d", workers), ref, c)
	}
}

// TestSweepDeclines pins the conditions under which the kernel must
// refuse to run and leave the simulation untouched: a non-RBSG scheme,
// nonzero translation latency, and a bank close enough to end of life
// that a line could fail mid-sweep.
func TestSweepDeclines(t *testing.T) {
	t.Run("non-rbsg scheme", func(t *testing.T) {
		c := wear.MustNewController(bankCfg(50_000),
			secref.MustNewTwoLevel(secref.TwoLevelConfig{
				Lines: 1 << 10, Regions: 16, InnerInterval: 8, OuterInterval: 16, Seed: 1,
			}))
		ft := exactsim.NewFastTarget(c, 2)
		if _, _, ok := ft.Sweep(0); ok {
			t.Fatal("Sweep must decline for non-RBSG schemes")
		}
		if c.Bank().TotalWrites() != 0 {
			t.Fatalf("declined sweep issued %d writes", c.Bank().TotalWrites())
		}
	})
	t.Run("translation latency", func(t *testing.T) {
		c := wear.MustNewController(bankCfg(50_000),
			rbsg.MustNew(rbsg.Config{Lines: 1 << 10, Regions: 8, Interval: 16, Seed: 2}))
		c.TranslationNs = 10
		ft := exactsim.NewFastTarget(c, 2)
		if _, _, ok := ft.Sweep(-1); ok {
			t.Fatal("Sweep must decline when translation latency shifts the clock per write")
		}
		if c.Bank().TotalWrites() != 0 {
			t.Fatalf("declined sweep issued %d writes", c.Bank().TotalWrites())
		}
	})
	t.Run("near end of life", func(t *testing.T) {
		// per-region sweep load 128 writes at ψ=16 → up to ~9 movements;
		// endurance 10 cannot absorb 2m+2, so a mid-sweep failure is
		// possible and the kernel must hand back to the naive loop.
		c := wear.MustNewController(bankCfg(10),
			rbsg.MustNew(rbsg.Config{Lines: 1 << 10, Regions: 8, Interval: 16, Seed: 3}))
		ft := exactsim.NewFastTarget(c, 2)
		if _, _, ok := ft.Sweep(-1); ok {
			t.Fatal("Sweep must decline when a line could fail mid-sweep")
		}
		if c.Bank().TotalWrites() != 0 {
			t.Fatalf("declined sweep issued %d writes", c.Bank().TotalWrites())
		}
	})
}

// TestWriteRunStopOnFailTruncation: the batched path must stop on the
// exact write that records the first failure, like the naive loop.
func TestWriteRunStopOnFailTruncation(t *testing.T) {
	const endurance = 100
	mk := func() wear.Scheme {
		return rbsg.MustNew(rbsg.Config{Lines: 256, Regions: 8, Interval: 16, Seed: 7})
	}
	cn := wear.MustNewController(bankCfg(endurance), noFF{mk()})
	cf := wear.MustNewController(bankCfg(endurance), mk())
	for step := 0; ; step++ {
		in, nsN := cn.WriteRun(9, pcm.Ones, 500, true, nil)
		iF, nsF := cf.WriteRun(9, pcm.Ones, 500, true, nil)
		if in != iF || nsN != nsF {
			t.Fatalf("step %d: naive issued %d (%d ns), fast issued %d (%d ns)", step, in, nsN, iF, nsF)
		}
		compareControllers(t, fmt.Sprintf("step %d", step), cn, cf)
		if cn.Bank().Failed() {
			if in == 500 {
				t.Fatalf("step %d: run failed the bank but was not truncated", step)
			}
			break
		}
		if step > 50 {
			t.Fatal("bank never failed at endurance 100")
		}
	}
}

// TestWriteRunEventEarlyStop: returning false from onEvent must stop
// both paths after the same write.
func TestWriteRunEventEarlyStop(t *testing.T) {
	mk := func() wear.Scheme {
		return rbsg.MustNew(rbsg.Config{Lines: 256, Regions: 8, Interval: 16, Seed: 8})
	}
	cn := wear.MustNewController(bankCfg(100_000), noFF{mk()})
	cf := wear.MustNewController(bankCfg(100_000), mk())
	stopAt := func(c *wear.Controller) (issued, ns uint64, events [][2]uint64) {
		issued, ns = c.WriteRun(3, pcm.Ones, 200, false, func(i, ns uint64) bool {
			events = append(events, [2]uint64{i, ns})
			return len(events) < 2 // observe two anomalies, then bail
		})
		return issued, ns, events
	}
	in, nsN, evN := stopAt(cn)
	iF, nsF, evF := stopAt(cf)
	if in != iF || nsN != nsF {
		t.Fatalf("naive issued %d (%d ns), fast issued %d (%d ns)", in, nsN, iF, nsF)
	}
	if !slices.Equal(evN, evF) {
		t.Fatalf("event sequences diverge: naive %v, fast %v", evN, evF)
	}
	if len(evN) != 2 || in == 200 {
		t.Fatalf("run should have stopped at the second anomaly: %d events, %d issued", len(evN), in)
	}
	compareControllers(t, "early stop", cn, cf)
}

// FuzzWriteRunEpochBoundaries fuzzes WriteRun against the naive loop on
// twin controllers of any exact scheme (one fuzzed byte picks it from
// the registry), with run lengths chosen to straddle remap boundaries
// (up to ~3 intervals per call) and enough total traffic to cross line
// failures. Every call must agree on issued count, total latency, the
// full anomalous-event sequence, and every device observable.
func FuzzWriteRunEpochBoundaries(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(16), uint8(4), []byte{17, 15, 17, 16, 17, 17, 5, 200, 5, 33})
	f.Add(uint64(2), uint8(4), uint8(3), uint8(1), []byte{0, 1, 1, 2, 2, 3, 3, 250})
	f.Add(uint64(3), uint8(0), uint8(64), uint8(40), []byte{9, 255, 9, 255, 9, 255, 9, 255})
	f.Add(uint64(4), uint8(8), uint8(1), uint8(0), []byte{255, 254, 7, 7, 7, 8})
	schemes := exactSchemes(f)
	for i := range schemes {
		f.Add(uint64(5+i), uint8(i), uint8(5), uint8(2), []byte{17, 15, 17, 16, 3, 40, 200, 9, 17, 17})
	}
	f.Fuzz(func(t *testing.T, seed uint64, schemeRaw, psiRaw, endRaw uint8, script []byte) {
		s := schemes[int(schemeRaw)%len(schemes)]
		psi := uint64(psiRaw)%64 + 1
		endurance := 40 + uint64(endRaw)*16
		cn, cf := twin(t, s, registry.Config{
			Lines: 256, Endurance: endurance,
			InnerInterval: psi, OuterInterval: 2 * psi, Seed: seed,
		})
		if len(script) > 128 {
			script = script[:128]
		}
		for i := 0; i+1 < len(script); i += 2 {
			la := uint64(script[i])
			n := uint64(script[i+1])%(3*psi+2) + 1
			content := pcm.Zeros
			if script[i]&1 == 1 {
				content = pcm.Ones
			}
			stopOnFail := script[i+1]&1 == 1
			if pa, _ := cf.Scheme().(wear.FastForwarder).Epoch(la); pa != cf.Scheme().Translate(la) {
				t.Fatalf("step %d: Epoch(%d) names line %d, Translate %d", i/2, la, pa, cf.Scheme().Translate(la))
			}
			var evN, evF [][2]uint64
			in, nsN := cn.WriteRun(la, content, n, stopOnFail, func(j, ns uint64) bool {
				evN = append(evN, [2]uint64{j, ns})
				return true
			})
			iF, nsF := cf.WriteRun(la, content, n, stopOnFail, func(j, ns uint64) bool {
				evF = append(evF, [2]uint64{j, ns})
				return true
			})
			if in != iF || nsN != nsF {
				t.Fatalf("step %d (la=%d n=%d stop=%v): naive issued %d (%d ns), fast issued %d (%d ns)",
					i/2, la, n, stopOnFail, in, nsN, iF, nsF)
			}
			if !slices.Equal(evN, evF) {
				t.Fatalf("step %d: event sequences diverge: naive %v, fast %v", i/2, evN, evF)
			}
			compareControllers(t, fmt.Sprintf("step %d", i/2), cn, cf)
			if cn.Bank().Failed() {
				break
			}
		}
	})
}
