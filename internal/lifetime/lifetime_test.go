package lifetime_test

import (
	"math"
	"testing"

	"securityrbsg/internal/attack"
	"securityrbsg/internal/core"
	"securityrbsg/internal/lifetime"
	"securityrbsg/internal/pcm"
	"securityrbsg/internal/rbsg"
	"securityrbsg/internal/secref"
	"securityrbsg/internal/startgap"
	"securityrbsg/internal/wear"
)

func TestPaperDevice(t *testing.T) {
	d := lifetime.PaperDevice()
	if d.Lines != 1<<22 || d.Endurance != 1e8 {
		t.Fatalf("device drifted: %+v", d)
	}
	if d.AddressBits() != 22 {
		t.Fatal("address bits")
	}
	// Ideal lifetime ≈ 4855 days.
	days := d.IdealSeconds() / 86400
	if days < 4800 || days > 4900 {
		t.Fatalf("ideal %f days", days)
	}
}

func TestBaseline(t *testing.T) {
	// "an adversary can render a memory line unusable in one minute":
	// 10^8 writes × 1000 ns = 100 s.
	e := lifetime.Baseline(lifetime.PaperDevice())
	if e.Seconds != 100 {
		t.Fatalf("baseline RAA lifetime %v s, want 100", e.Seconds)
	}
}

// TestFig11Headlines checks the paper's three headline numbers for Fig 11
// at the recommended configuration (32 regions, ψ=100).
func TestFig11Headlines(t *testing.T) {
	d := lifetime.PaperDevice()
	p := lifetime.RBSGParams{Regions: 32, Interval: 100}
	rta := lifetime.RTAOnRBSG(d, p)
	raa := lifetime.RAAOnRBSG(d, p)
	// "RTA fails the PCM in 478 seconds".
	if rta.Seconds < 430 || rta.Seconds > 530 {
		t.Errorf("RTA lifetime %.0f s, paper says 478", rta.Seconds)
	}
	// "which is 27435X faster than RAA".
	if ratio := raa.Seconds / rta.Seconds; ratio < 20000 || ratio > 35000 {
		t.Errorf("RAA/RTA ratio %.0f, paper says 27435", ratio)
	}
}

// TestFig11Trends checks both sweep trends the paper reports.
func TestFig11Trends(t *testing.T) {
	d := lifetime.PaperDevice()
	// Lifetime under RTA decreases as the number of regions increases.
	prev := math.Inf(1)
	for _, r := range []uint64{32, 64, 128} {
		s := lifetime.RTAOnRBSG(d, lifetime.RBSGParams{Regions: r, Interval: 100}).Seconds
		if s >= prev {
			t.Errorf("RTA lifetime should fall with region count (R=%d: %v >= %v)", r, s, prev)
		}
		prev = s
	}
	// Faster wear leveling (smaller ψ) accelerates RTA.
	if lifetime.RTAOnRBSG(d, lifetime.RBSGParams{Regions: 32, Interval: 16}).Seconds >=
		lifetime.RTAOnRBSG(d, lifetime.RBSGParams{Regions: 32, Interval: 100}).Seconds {
		t.Error("RTA should be faster at smaller remapping intervals")
	}
	// RAA, by contrast, is resisted by more regions (smaller LVF).
	if lifetime.RAAOnRBSG(d, lifetime.RBSGParams{Regions: 128, Interval: 100}).Seconds >=
		lifetime.RAAOnRBSG(d, lifetime.RBSGParams{Regions: 32, Interval: 100}).Seconds {
		t.Error("RAA lifetime should shrink with more regions")
	}
}

// TestRAAOnRBSGMatchesExactSim cross-validates the closed form against a
// write-by-write simulation at small scale.
func TestRAAOnRBSGMatchesExactSim(t *testing.T) {
	d := lifetime.Device{Lines: 256, Endurance: 2000, Timing: pcm.DefaultTiming}
	p := lifetime.RBSGParams{Regions: 8, Interval: 4}
	model := lifetime.RAAOnRBSG(d, p)

	s := rbsg.MustNew(rbsg.Config{Lines: 256, Regions: 8, Interval: 4, Seed: 1})
	c := wear.MustNewController(pcm.Config{Endurance: 2000, Timing: pcm.DefaultTiming}, s)
	res := attack.RAA(c, 3, pcm.Mixed, 0)
	if !res.Failed {
		t.Fatal("sim did not fail")
	}
	if ratio := model.Writes / float64(res.Writes); ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("closed form %v writes vs sim %v (ratio %.3f)", model.Writes, res.Writes, ratio)
	}
}

// TestRAAOnStartGapMatchesExactSim checks the first-visit regime: at
// 2^10 lines and ψ = 100 a whole-bank Start-Gap round (102,500 writes)
// outlasts E = 10^4, so the hammered line dies on its first visit, not
// after the averaged formula's ≈10^7 writes. The victim address is the
// registry's raa cell's.
func TestRAAOnStartGapMatchesExactSim(t *testing.T) {
	d := lifetime.Device{Lines: 1 << 10, Endurance: 10000, Timing: pcm.DefaultTiming}
	model := lifetime.RAAOnStartGap(d, 100)

	s, err := startgap.NewSingle(1<<10, 100)
	if err != nil {
		t.Fatal(err)
	}
	c := wear.MustNewController(pcm.Config{Endurance: 10000, Timing: pcm.DefaultTiming}, s)
	res := attack.RAA(c, 17, pcm.Mixed, 0)
	if !res.Failed {
		t.Fatal("sim did not fail")
	}
	if ratio := model.Writes / float64(res.Writes); ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("closed form %v writes vs sim %v (ratio %.3f)", model.Writes, res.Writes, ratio)
	}
}

// TestFig12Headline: two-level SR at the suggested configuration falls to
// RTA in ≈178.8 hours.
func TestFig12Headline(t *testing.T) {
	e := lifetime.RTAOnTwoLevelSRAvg(lifetime.PaperDevice(), lifetime.SuggestedSRParams(), 5, 1)
	h := e.Seconds / 3600
	if h < 140 || h > 230 {
		t.Fatalf("two-level SR under RTA: %.1f h, paper says 178.8", h)
	}
}

// TestFig13Headline: two-level SR under RAA lives ≈105 months, 322×
// longer than under RTA.
func TestFig13Headline(t *testing.T) {
	d := lifetime.PaperDevice()
	raa := lifetime.RAAOnTwoLevelSR(d, lifetime.SuggestedSRParams())
	months := raa.Seconds / 86400 / 30
	if months < 85 || months > 130 {
		t.Fatalf("two-level SR under RAA: %.0f months, paper says ≈105", months)
	}
	rta := lifetime.RTAOnTwoLevelSRAvg(d, lifetime.SuggestedSRParams(), 5, 1)
	if ratio := raa.Seconds / rta.Seconds; ratio < 200 || ratio > 600 {
		t.Fatalf("RAA/RTA ratio %.0f, paper says 322", ratio)
	}
}

// TestFig12Trends: more sub-regions and larger outer intervals both
// shorten the RTA lifetime.
func TestFig12Trends(t *testing.T) {
	d := lifetime.PaperDevice()
	base := lifetime.SuggestedSRParams()
	more := base
	more.Regions = 1024
	if lifetime.RTAOnTwoLevelSR(d, more, 0.75).Seconds >= lifetime.RTAOnTwoLevelSR(d, base, 0.75).Seconds {
		t.Error("more sub-regions should shorten RTA lifetime")
	}
	longer := base
	longer.OuterInterval = 256
	if lifetime.RTAOnTwoLevelSR(d, longer, 0.75).Seconds >= lifetime.RTAOnTwoLevelSR(d, base, 0.75).Seconds {
		t.Error("longer outer interval should shorten RTA lifetime")
	}
}

// TestRAAOnTwoLevelSRMatchesExactSim cross-validates the Poisson
// extreme-value model against the real scheme under RAA at small scale.
func TestRAAOnTwoLevelSRMatchesExactSim(t *testing.T) {
	d := lifetime.Device{Lines: 1 << 10, Endurance: 3000, Timing: pcm.DefaultTiming}
	p := lifetime.SRParams{Regions: 8, InnerInterval: 4, OuterInterval: 8}
	model := lifetime.RAAOnTwoLevelSR(d, p)

	var simWrites float64
	const runs = 3
	for seed := uint64(0); seed < runs; seed++ {
		s := secref.MustNewTwoLevel(secref.TwoLevelConfig{
			Lines: 1 << 10, Regions: 8, InnerInterval: 4, OuterInterval: 8, Seed: seed,
		})
		c := wear.MustNewController(pcm.Config{Endurance: 3000, Timing: pcm.DefaultTiming}, s)
		res := attack.RAA(c, 5, pcm.Mixed, 0)
		if !res.Failed {
			t.Fatal("sim did not fail")
		}
		simWrites += float64(res.Writes)
	}
	simWrites /= runs
	if ratio := model.Writes / simWrites; ratio < 0.55 || ratio > 1.8 {
		t.Fatalf("model %v writes vs sim %v (ratio %.2f)", model.Writes, simWrites, ratio)
	}
}

// TestFig14Shape: the stage sweep must rise steeply from 3 stages and
// saturate, with BPA flat (stage-independent) near the saturation level.
func TestFig14Shape(t *testing.T) {
	d, p := lifetime.ScaledSRBSGExperiment(0)

	frac := func(stages int) float64 {
		p.Stages = stages
		e, err := lifetime.RAAOnSecurityRBSGAvg(d, p, 3, 42)
		if err != nil {
			t.Fatal(err)
		}
		return e.FractionOfIdeal
	}
	f3, f7, f14 := frac(3), frac(7), frac(14)
	if !(f3 < f7 && f7 < f14*1.3) {
		t.Fatalf("stage curve not rising: f3=%.3f f7=%.3f f14=%.3f", f3, f7, f14)
	}
	if f3 > 0.6*f7 {
		t.Fatalf("3 stages should sit far below the saturation level (paper: 20%% vs 67%%), got %.2f vs %.2f", f3, f7)
	}
	if f14 < 0.5 {
		t.Fatalf("many stages should approach the BPA level, got %.2f", f14)
	}
	p.Stages = 7
	bpa := lifetime.BPAOnSecurityRBSG(d, p)
	if bpa.FractionOfIdeal < 0.55 || bpa.FractionOfIdeal > 0.8 {
		t.Fatalf("BPA fraction %.3f, paper says 0.664", bpa.FractionOfIdeal)
	}
}

// TestFig15Trend: Security RBSG's RAA lifetime *increases* with the outer
// interval — the opposite of SR under RTA, as the paper highlights.
func TestFig15Trend(t *testing.T) {
	d, short := lifetime.ScaledSRBSGExperiment(7)
	short.OuterInterval = 16
	long := short
	long.OuterInterval = 256
	a, err := lifetime.RAAOnSecurityRBSGAvg(d, short, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := lifetime.RAAOnSecurityRBSGAvg(d, long, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if b.FractionOfIdeal <= a.FractionOfIdeal {
		t.Fatalf("lifetime should rise with outer interval: ψo=16 → %.3f, ψo=256 → %.3f",
			a.FractionOfIdeal, b.FractionOfIdeal)
	}
}

// TestRAAOnSecurityRBSGMatchesExactSim cross-validates the arc-deposit
// Monte-Carlo against the real scheme driven write by write.
func TestRAAOnSecurityRBSGMatchesExactSim(t *testing.T) {
	d := lifetime.Device{Lines: 256, Endurance: 5000, Timing: pcm.DefaultTiming}
	p := lifetime.SRBSGParams{Regions: 8, InnerInterval: 4, OuterInterval: 8, Stages: 7}
	model, err := lifetime.RAAOnSecurityRBSGAvg(d, p, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	var simWrites float64
	const runs = 3
	for seed := uint64(0); seed < runs; seed++ {
		s := core.MustNew(core.Config{
			Lines: 256, Regions: 8, InnerInterval: 4,
			OuterInterval: 8, Stages: 7, Seed: seed + 100,
		})
		c := wear.MustNewController(pcm.Config{Endurance: 5000, Timing: pcm.DefaultTiming}, s)
		res := attack.RAA(c, 3, pcm.Mixed, 0)
		if !res.Failed {
			t.Fatal("sim did not fail")
		}
		simWrites += float64(res.Writes)
	}
	simWrites /= runs
	if ratio := model.Writes / simWrites; ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("model %v writes vs sim %v (ratio %.2f)", model.Writes, simWrites, ratio)
	}
}

// TestRTAOnSecurityRBSG: secure configurations fall back to RAA-grade
// lifetimes; leaky ones collapse toward the SR attack model.
func TestRTAOnSecurityRBSG(t *testing.T) {
	d, p := lifetime.ScaledSRBSGExperiment(8)
	est, secure, err := lifetime.RTAOnSecurityRBSG(d, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !secure {
		t.Fatal("8 stages × 18 bits = 144 ≥ 128 should be secure")
	}
	p.Stages = 3 // 54 < 128: leaks
	weak, secure2, err := lifetime.RTAOnSecurityRBSG(d, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if secure2 {
		t.Fatal("3 stages should leak")
	}
	if weak.Seconds >= est.Seconds {
		t.Fatalf("leaky config should die faster: %.3g vs %.3g s", weak.Seconds, est.Seconds)
	}
}

// TestWriteDistributionApproachesUniform reproduces Fig 16's trend: the
// normalized accumulated write curve straightens as total writes grow.
func TestWriteDistributionApproachesUniform(t *testing.T) {
	d := lifetime.ScaledDevice(1<<16, 1e12)
	p := lifetime.SRBSGParams{Regions: 64, InnerInterval: 16, OuterInterval: 32, Stages: 7}
	err1 := distUniformityError(t, d, p, 2e8)
	err2 := distUniformityError(t, d, p, 2e10)
	if err2 >= err1 {
		t.Fatalf("uniformity should improve with writes: %.4f → %.4f", err1, err2)
	}
	if err2 > 0.05 {
		t.Fatalf("late-time distribution still uneven: %.4f", err2)
	}
}

func distUniformityError(t *testing.T, d lifetime.Device, p lifetime.SRBSGParams, writes float64) float64 {
	t.Helper()
	counts, err := lifetime.WriteDistribution(d, p, writes, 9)
	if err != nil {
		t.Fatal(err)
	}
	return uniformityError(counts)
}

// uniformityError is a local copy of stats.UniformityError to keep the
// dependency direction clean in tests.
func uniformityError(counts []uint32) float64 {
	var total float64
	for _, c := range counts {
		total += float64(c)
	}
	if total == 0 {
		return 0
	}
	var acc, worst float64
	n := float64(len(counts))
	for i, c := range counts {
		acc += float64(c)
		if d := math.Abs(acc/total - float64(i+1)/n); d > worst {
			worst = d
		}
	}
	return worst
}

func TestBPAInsensitiveToStages(t *testing.T) {
	d, p := lifetime.ScaledSRBSGExperiment(3)
	a := lifetime.BPAOnSecurityRBSG(d, p)
	p.Stages = 20
	b := lifetime.BPAOnSecurityRBSG(d, p)
	if a.FractionOfIdeal != b.FractionOfIdeal {
		t.Fatalf("BPA must not depend on stage count: %.4f vs %.4f",
			a.FractionOfIdeal, b.FractionOfIdeal)
	}
}

func TestRAAOnStartGapLabel(t *testing.T) {
	e := lifetime.RAAOnStartGap(lifetime.PaperDevice(), 100)
	if e.Scheme != "start-gap" {
		t.Fatal("label")
	}
	// Whole-bank start-gap: enormous LVF, enormous RAA lifetime compared
	// to ideal fraction... but still finite and below ideal.
	if e.FractionOfIdeal >= 1 {
		t.Fatal("fraction must be below ideal")
	}
}
