package attack

import (
	"testing"

	"securityrbsg/internal/core"
	"securityrbsg/internal/pcm"
	"securityrbsg/internal/rbsg"
	"securityrbsg/internal/secref"
	"securityrbsg/internal/wear"
)

func bankCfg(endurance uint64) pcm.Config {
	return pcm.Config{Endurance: endurance, Timing: pcm.DefaultTiming}
}

func TestRAAKillsBaselineInEnduranceWrites(t *testing.T) {
	c := wear.MustNewController(bankCfg(1000), wear.NewPassthrough(64))
	res := RAA(c, 7, pcm.Mixed, 0)
	if !res.Failed || res.FailedPA != 7 {
		t.Fatalf("result %+v", res)
	}
	if res.Writes != 1001 {
		t.Fatalf("baseline RAA took %d writes, want endurance+1", res.Writes)
	}
	// 100 s at paper scale: here 1001 µs.
	if res.AttackNs != 1001*1000 {
		t.Fatalf("attack time %d ns", res.AttackNs)
	}
}

func TestRAAAgainstRBSGMatchesClosedForm(t *testing.T) {
	s := rbsg.MustNew(rbsg.Config{Lines: 256, Regions: 8, Interval: 4, Seed: 1})
	c := wear.MustNewController(bankCfg(2000), s)
	res := RAA(c, 3, pcm.Mixed, 0)
	if !res.Failed {
		t.Fatal("RAA did not fail the device")
	}
	// Closed form: E(n+1)ψ/(ψ+1) = 2000·33·4/5 = 52800.
	want := 52800.0
	got := float64(res.Writes)
	if got < want*0.9 || got > want*1.1 {
		t.Fatalf("RAA writes %v, closed form predicts %v", got, want)
	}
}

func TestRAAMaxWritesBound(t *testing.T) {
	c := wear.MustNewController(bankCfg(1<<30), wear.NewPassthrough(8))
	res := RAA(c, 0, pcm.Mixed, 500)
	if res.Failed || res.Writes != 500 {
		t.Fatalf("bounded RAA: %+v", res)
	}
}

func TestBPAKillsRBSG(t *testing.T) {
	s := rbsg.MustNew(rbsg.Config{Lines: 256, Regions: 8, Interval: 2, Seed: 2})
	c := wear.MustNewController(bankCfg(500), s)
	res := BPA(c, s.LineVulnerabilityFactor(), pcm.Mixed, 3, 50_000_000)
	if !res.Failed {
		t.Fatalf("BPA never failed the device in %d writes", res.Writes)
	}
}

func TestSweepHelpers(t *testing.T) {
	c := wear.MustNewController(bankCfg(1<<20), wear.NewPassthrough(16))
	w, _ := SweepZeros(c, 16)
	if w != 16 {
		t.Fatal("sweep zeros count")
	}
	for la := uint64(0); la < 16; la++ {
		if content, _ := c.Read(la); content != pcm.Zeros {
			t.Fatalf("LA %d not zeroed", la)
		}
	}
	SweepPattern(c, 16, 2)
	for la := uint64(0); la < 16; la++ {
		want := pcm.Zeros
		if la>>2&1 == 1 {
			want = pcm.Ones
		}
		if content, _ := c.Read(la); content != want {
			t.Fatalf("LA %d pattern %v, want %v", la, content, want)
		}
	}
}

// rbsgGroundTruthSequence computes, from scheme internals the attacker
// never sees, the true logical addresses physically preceding Li.
func rbsgGroundTruthSequence(s *rbsg.Scheme, li uint64, k int) []uint64 {
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

// TestRTARBSGRecoversSequence is the paper's Section III-B end to end:
// the attacker, observing only write latencies, recovers the logical
// addresses physically adjacent to its target — then destroys one line.
func TestRTARBSGRecoversSequence(t *testing.T) {
	s := rbsg.MustNew(rbsg.Config{Lines: 256, Regions: 8, Interval: 4, Seed: 5})
	c := wear.MustNewController(bankCfg(500), s)
	a := &RTARBSG{
		Target: c,
		Lines:  256, Regions: 8, Interval: 4,
		Li:     17,
		SeqLen: 6,
		Oracle: func() bool { return c.Bank().Failed() },
	}
	res, err := a.Run()
	if err != nil {
		t.Fatalf("attack error: %v", err)
	}
	want := rbsgGroundTruthSequence(s, 17, 6)
	got := a.Sequence()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sequence[%d] = %d, ground truth %d (full: got %v want %v)",
				i, got[i], want[i], got, want)
		}
	}
	if !res.Failed {
		t.Fatal("attack did not wear out the target line")
	}
	t.Logf("RTA: %d writes (align %d, detect %d, wear %d), failed PA %d",
		res.Writes, a.AlignWrites, a.DetectWrites, a.WearWrites, res.FailedPA)
}

// TestRTAFasterThanRAAOnRBSG is the paper's headline: RTA concentrates
// nearly every wear-phase write on one physical line, while RAA spreads
// them over a whole region.
func TestRTAFasterThanRAAOnRBSG(t *testing.T) {
	const endurance = 2000
	mk := func() *wear.Controller {
		return wear.MustNewController(bankCfg(endurance),
			rbsg.MustNew(rbsg.Config{Lines: 256, Regions: 8, Interval: 4, Seed: 6}))
	}
	raaRes := RAA(mk(), 17, pcm.Mixed, 0)

	c := mk()
	a := &RTARBSG{
		Target: c, Lines: 256, Regions: 8, Interval: 4, Li: 17, SeqLen: 31,
		Oracle: func() bool { return c.Bank().Failed() },
	}
	rtaRes, err := a.Run()
	if err != nil {
		t.Fatalf("attack error: %v", err)
	}
	if !rtaRes.Failed || !raaRes.Failed {
		t.Fatal("both attacks must succeed")
	}
	if rtaRes.Writes*2 >= raaRes.Writes {
		t.Fatalf("RTA (%d writes) should be far faster than RAA (%d writes)",
			rtaRes.Writes, raaRes.Writes)
	}
	t.Logf("RTA %d writes vs RAA %d writes: %.1fx faster",
		rtaRes.Writes, raaRes.Writes, float64(raaRes.Writes)/float64(rtaRes.Writes))
}

// spyTarget records the SR key difference of every round the attack
// lives through, so the test can compare the attacker's recovered values
// with ground truth.
type spyTarget struct {
	c    *wear.Controller
	s    *secref.OneLevel
	ds   []uint64
	last uint64
}

func (sp *spyTarget) observe() {
	kc, kp := sp.s.Keys()
	d := kc ^ kp
	if len(sp.ds) == 0 || sp.ds[len(sp.ds)-1] != d {
		sp.ds = append(sp.ds, d)
	}
	sp.last = sp.s.Rounds()
}

func (sp *spyTarget) Write(la uint64, content pcm.Content) uint64 {
	ns := sp.c.Write(la, content)
	sp.observe()
	return ns
}

func (sp *spyTarget) Read(la uint64) (pcm.Content, uint64) {
	return sp.c.Read(la)
}

// TestRTASRRecoversKeyDifference is Section III-D end to end: the
// attacker recovers keyc XOR keyp of one-level Security Refresh from swap
// latencies alone, round after round, and kills a line.
func TestRTASRRecoversKeyDifference(t *testing.T) {
	// ψ must comfortably exceed the address width for detection to fit in
	// one round (the paper's configurations have ψ=100 ≫ B=22).
	s := secref.MustNewOneLevel(256, 32, 0, nil)
	c := wear.MustNewController(bankCfg(12000), s)
	spy := &spyTarget{c: c, s: s}
	a := &RTASR{
		Target: spy,
		Lines:  256, Interval: 32,
		Li:     33,
		Oracle: func() bool { return c.Bank().Failed() },
	}
	res, err := a.Run()
	if err != nil {
		t.Fatalf("attack error: %v", err)
	}
	if !res.Failed {
		t.Fatal("attack did not fail the device")
	}
	if len(a.RecoveredDs) == 0 {
		t.Fatal("no key differences recovered")
	}
	// Every recovered D must appear in the spy's per-round ground truth.
	truth := make(map[uint64]bool, len(spy.ds))
	for _, d := range spy.ds {
		truth[d] = true
	}
	for i, d := range a.RecoveredDs {
		if !truth[d] {
			t.Fatalf("recovered D[%d] = %#x not among true round keys %v", i, d, spy.ds)
		}
	}
	t.Logf("recovered %d round key-differences over %d rounds; %d writes to failure",
		len(a.RecoveredDs), a.RoundsSeen, res.Writes)
}

// TestRTAFasterThanRAAOnSR: against one-level SR the timing attack pins a
// single physical line across rounds, while RAA's wear is scattered by
// the re-keying.
func TestRTAFasterThanRAAOnSR(t *testing.T) {
	const endurance = 12000
	mkC := func() (*wear.Controller, *secref.OneLevel) {
		s := secref.MustNewOneLevel(256, 32, 0, nil)
		return wear.MustNewController(bankCfg(endurance), s), s
	}
	cr, _ := mkC()
	raaRes := RAA(cr, 33, pcm.Mixed, 3_000_000)

	c, _ := mkC()
	a := &RTASR{
		Target: c, Lines: 256, Interval: 32, Li: 33,
		Oracle: func() bool { return c.Bank().Failed() },
	}
	rtaRes, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rtaRes.Failed {
		t.Fatal("RTA must fail the device")
	}
	if raaRes.Failed && rtaRes.Writes >= raaRes.Writes {
		t.Fatalf("RTA (%d writes) should beat RAA (%d writes)", rtaRes.Writes, raaRes.Writes)
	}
	t.Logf("RTA %d writes; RAA %d writes (failed=%v)", rtaRes.Writes, raaRes.Writes, raaRes.Failed)
}

// TestSecurityRBSGResistsRTARBSG: the RBSG timing attack, run verbatim
// against Security RBSG, cannot pin a line — within a budget several
// times what sufficed against RBSG, no line fails.
func TestSecurityRBSGResistsRTARBSG(t *testing.T) {
	s := core.MustNew(core.Config{
		Lines: 256, Regions: 8, InnerInterval: 4,
		OuterInterval: 8, Stages: 4, Seed: 8,
	})
	c := wear.MustNewController(bankCfg(2000), s)
	a := &RTARBSG{
		Target: c, Lines: 256, Regions: 8, Interval: 4, Li: 17, SeqLen: 31,
		MaxWrites: 400_000, // ~6x the writes RTA needed against RBSG
		Oracle:    func() bool { return c.Bank().Failed() },
	}
	res, _ := a.Run() // errors are expected — the shadow model breaks
	if res.Failed {
		t.Fatalf("Security RBSG fell to the RBSG timing attack in %d writes", res.Writes)
	}
}

// TestSecurityRBSGOutlivesRBSGUnderRAA: same endurance, same attack —
// Security RBSG spreads the hammering across the whole bank instead of
// one region.
func TestSecurityRBSGOutlivesRBSGUnderRAA(t *testing.T) {
	// Endurance must dwarf the per-slot visit quantum ((n+1)·ψ_inner) for
	// the schemes to separate — at paper scale the ratio is ~190.
	const endurance = 5000
	rb := wear.MustNewController(bankCfg(endurance),
		rbsg.MustNew(rbsg.Config{Lines: 256, Regions: 8, Interval: 4, Seed: 9}))
	rbRes := RAA(rb, 3, pcm.Mixed, 0)

	sb := wear.MustNewController(bankCfg(endurance), core.MustNew(core.Config{
		Lines: 256, Regions: 8, InnerInterval: 4,
		OuterInterval: 8, Stages: 7, Seed: 9,
	}))
	sbRes := RAA(sb, 3, pcm.Mixed, 0)
	if !rbRes.Failed || !sbRes.Failed {
		t.Fatal("both must eventually fail")
	}
	if sbRes.Writes <= rbRes.Writes*2 {
		t.Fatalf("Security RBSG (%d writes) should far outlive RBSG (%d writes) under RAA",
			sbRes.Writes, rbRes.Writes)
	}
	t.Logf("RAA to failure: RBSG %d writes, Security RBSG %d writes (%.1fx)",
		rbRes.Writes, sbRes.Writes, float64(sbRes.Writes)/float64(rbRes.Writes))
}

// TestRTAWriteNZeroAlloc pins the engine's batched write step at zero
// allocations per call on a wear.Controller, under each timing attack's
// shadow: each call is one inter-movement epoch, and an exact-tier cell
// makes millions of them.
func TestRTAWriteNZeroAlloc(t *testing.T) {
	const lines, regions, interval = 1 << 10, 8, 16
	zeroAllocs := func(t *testing.T, step func() error) {
		t.Helper()
		allocs := testing.AllocsPerRun(200, func() {
			if err := step(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%v allocs per batch, want 0", allocs)
		}
	}
	t.Run("rbsg", func(t *testing.T) {
		c := wear.MustNewController(bankCfg(1<<40),
			rbsg.MustNew(rbsg.Config{Lines: lines, Regions: regions, Interval: interval, Seed: 3}))
		a := &RTARBSG{
			Target: c, Lines: lines, Regions: regions, Interval: interval, Li: 17,
			Oracle: func() bool { return c.Bank().Failed() },
		}
		if err := a.start(); err != nil {
			t.Fatal(err)
		}
		zeroAllocs(t, func() error {
			_, _, _, err := a.hammer(a.Li, pcm.Ones, a.Interval-a.cnt)
			return err
		})
	})
	t.Run("sr", func(t *testing.T) {
		c := wear.MustNewController(bankCfg(1<<40), secref.MustNewOneLevel(lines, interval, 0, nil))
		a := &RTASR{
			Target: c, Lines: lines, Interval: interval, Li: 17,
			Oracle: func() bool { return c.Bank().Failed() },
		}
		if err := a.start(); err != nil {
			t.Fatal(err)
		}
		zeroAllocs(t, func() error {
			_, _, err := a.step(0, pcm.Ones, a.sched.left())
			return err
		})
	})
	t.Run("two-level-sr", func(t *testing.T) {
		s := secref.MustNewTwoLevel(secref.TwoLevelConfig{
			Lines: lines, Regions: regions, InnerInterval: interval / 4, OuterInterval: interval, Seed: 3,
		})
		c := wear.MustNewController(bankCfg(1<<40), s)
		a := &RTATwoLevelSRExact{
			Target: c, Lines: lines, Regions: regions,
			InnerInterval: interval / 4, OuterInterval: interval,
			Oracle: func() bool { return c.Bank().Failed() },
		}
		if err := a.start(); err != nil {
			t.Fatal(err)
		}
		zeroAllocs(t, func() error {
			_, _, err := a.step(0, pcm.Ones, a.sched.left())
			return err
		})
	})
}
