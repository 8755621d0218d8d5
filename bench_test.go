// Package benches regenerates every table and figure of the paper's
// evaluation as Go benchmarks: `go test -bench=. -benchmem` prints, for
// each experiment, the series the paper plots (via ReportMetric) so the
// shape — who wins, by what factor, where the crossovers fall — can be
// compared against Section V directly. EXPERIMENTS.md records the
// paper-vs-measured numbers.
//
// Monte-Carlo experiments run at the ratio-preserving scaled geometry
// (see DESIGN.md, "Scale policy"); closed-form experiments run at the
// paper's full 1 GB geometry. cmd/figgen -full reproduces the
// Monte-Carlo figures at full scale.
package benches

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"securityrbsg/internal/analytic"
	"securityrbsg/internal/attack"
	"securityrbsg/internal/core"
	"securityrbsg/internal/detector"
	"securityrbsg/internal/exactsim"
	"securityrbsg/internal/feistel"
	"securityrbsg/internal/lifetime"
	"securityrbsg/internal/pcm"
	"securityrbsg/internal/perfmodel"
	"securityrbsg/internal/rbsg"
	"securityrbsg/internal/secref"
	"securityrbsg/internal/startgap"
	"securityrbsg/internal/stats"
	"securityrbsg/internal/tablewl"
	"securityrbsg/internal/wear"
	"securityrbsg/internal/workload"
)

// BenchmarkFig4_RemapLatency measures the remapping-latency table of
// Fig 4 on the live device model: Start-Gap moves at 250/1125 ns and
// Security Refresh swaps at 500/1375/2250 ns.
func BenchmarkFig4_RemapLatency(b *testing.B) {
	bank := pcm.MustNewBank(pcm.Config{Lines: 4, Endurance: pcm.MaxEndurance})
	var move0, move1, swap00, swap01, swap11 uint64
	for i := 0; i < b.N; i++ {
		bank.Write(0, pcm.Zeros)
		bank.Write(1, pcm.Ones)
		move0 = bank.Move(0, 3)
		move1 = bank.Move(1, 3)
		bank.Write(0, pcm.Zeros)
		bank.Write(1, pcm.Zeros)
		swap00 = bank.Swap(0, 1)
		bank.Write(0, pcm.Ones)
		swap01 = bank.Swap(0, 1)
		bank.Write(0, pcm.Ones)
		bank.Write(1, pcm.Ones)
		swap11 = bank.Swap(0, 1)
	}
	b.ReportMetric(float64(move0), "move_all0_ns")
	b.ReportMetric(float64(move1), "move_all1_ns")
	b.ReportMetric(float64(swap00), "swap_00_ns")
	b.ReportMetric(float64(swap01), "swap_01_ns")
	b.ReportMetric(float64(swap11), "swap_11_ns")
}

// BenchmarkFig11_RBSG_RTAvsRAA evaluates the Fig 11 grid at full paper
// scale and reports the headline cell (32 regions, ψ=100): the paper
// finds RTA kills in 478 s, 27435× faster than RAA.
func BenchmarkFig11_RBSG_RTAvsRAA(b *testing.B) {
	d := lifetime.PaperDevice()
	var rta, raa lifetime.Estimate
	for i := 0; i < b.N; i++ {
		for _, r := range []uint64{32, 64, 128} {
			for _, psi := range []uint64{16, 32, 64, 100} {
				p := lifetime.RBSGParams{Regions: r, Interval: psi}
				e1, e2 := lifetime.RTAOnRBSG(d, p), lifetime.RAAOnRBSG(d, p)
				if r == 32 && psi == 100 {
					rta, raa = e1, e2
				}
			}
		}
	}
	b.ReportMetric(rta.Seconds, "rta_seconds")
	b.ReportMetric(raa.Seconds/86400, "raa_days")
	b.ReportMetric(raa.Seconds/rta.Seconds, "raa_over_rta")
}

// BenchmarkFig12_SR_RTA evaluates the Table-I grid for two-level SR under
// RTA and reports the suggested configuration: the paper finds ≈178.8 h.
func BenchmarkFig12_SR_RTA(b *testing.B) {
	d := lifetime.PaperDevice()
	var at lifetime.Estimate
	for i := 0; i < b.N; i++ {
		for _, regions := range []uint64{256, 512, 1024} {
			for _, inner := range []uint64{16, 32, 64, 128} {
				for _, outer := range []uint64{16, 32, 64, 128, 256} {
					p := lifetime.SRParams{Regions: regions, InnerInterval: inner, OuterInterval: outer}
					e := lifetime.RTAOnTwoLevelSRAvg(d, p, 5, 1)
					if regions == 512 && inner == 64 && outer == 128 {
						at = e
					}
				}
			}
		}
	}
	b.ReportMetric(at.Seconds/3600, "suggested_hours")
}

// BenchmarkFig13_SR_RAA evaluates the same grid under RAA: the paper
// finds ≈105 months at the suggested configuration, 322× the RTA number.
func BenchmarkFig13_SR_RAA(b *testing.B) {
	d := lifetime.PaperDevice()
	var raa, rta lifetime.Estimate
	for i := 0; i < b.N; i++ {
		for _, regions := range []uint64{256, 512, 1024} {
			for _, inner := range []uint64{16, 32, 64, 128} {
				for _, outer := range []uint64{16, 32, 64, 128, 256} {
					p := lifetime.SRParams{Regions: regions, InnerInterval: inner, OuterInterval: outer}
					e := lifetime.RAAOnTwoLevelSR(d, p)
					if regions == 512 && inner == 64 && outer == 128 {
						raa = e
						rta = lifetime.RTAOnTwoLevelSRAvg(d, p, 5, 1)
					}
				}
			}
		}
	}
	b.ReportMetric(raa.Seconds/86400/30, "suggested_months")
	b.ReportMetric(raa.FractionOfIdeal*100, "pct_of_ideal")
	b.ReportMetric(raa.Seconds/rta.Seconds, "raa_over_rta")
}

// BenchmarkFig14_Stages sweeps the DFN stage count with the real cipher
// at the scaled geometry: the paper reports ≈20% of ideal at 3 stages and
// 67.2% (RAA) / 66.4% (BPA) at 7.
func BenchmarkFig14_Stages(b *testing.B) {
	fracs := map[int]float64{}
	var bpa float64
	for i := 0; i < b.N; i++ {
		for _, s := range []int{3, 5, 7, 14} {
			d, p := lifetime.ScaledSRBSGExperiment(s)
			e, err := lifetime.RAAOnSecurityRBSGAvg(d, p, 3, 42)
			if err != nil {
				b.Fatal(err)
			}
			fracs[s] = e.FractionOfIdeal
			if s == 7 {
				bpa = lifetime.BPAOnSecurityRBSG(d, p).FractionOfIdeal
			}
		}
	}
	for _, s := range []int{3, 5, 7, 14} {
		b.ReportMetric(fracs[s]*100, fmt.Sprintf("pct_ideal_s%d", s))
	}
	b.ReportMetric(bpa*100, "pct_ideal_bpa")
}

// BenchmarkFig14_FullScalePoint runs the paper-geometry (1 GB) 7-stage
// point of Fig 14 — the headline 67.2%-of-ideal cell — with the real DFN.
// One RAASim is reused across iterations, so the benchmark measures the
// simulation itself, not the (megabytes-at-full-scale) state allocation.
func BenchmarkFig14_FullScalePoint(b *testing.B) {
	d := lifetime.PaperDevice()
	p := lifetime.SuggestedSRBSGParams()
	sim, err := lifetime.NewRAASim(d, p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var frac float64
	for i := 0; i < b.N; i++ {
		frac = sim.Run(uint64(i) + 1).FractionOfIdeal
	}
	b.ReportMetric(frac*100, "pct_of_ideal")
	b.ReportMetric(frac*d.IdealSeconds()/86400/30, "months")
}

// BenchmarkFig15_SRBSG_RAA sweeps the outer interval at the scaled
// geometry: the paper's distinguishing trend is that lifetime *rises*
// with the outer interval.
func BenchmarkFig15_SRBSG_RAA(b *testing.B) {
	fracs := map[uint64]float64{}
	for i := 0; i < b.N; i++ {
		for _, outer := range []uint64{16, 64, 256} {
			d, p := lifetime.ScaledSRBSGExperiment(7)
			p.OuterInterval = outer
			e, err := lifetime.RAAOnSecurityRBSGAvg(d, p, 3, 7)
			if err != nil {
				b.Fatal(err)
			}
			fracs[outer] = e.FractionOfIdeal
		}
	}
	for _, outer := range []uint64{16, 64, 256} {
		b.ReportMetric(fracs[outer]*100, fmt.Sprintf("pct_ideal_outer%d", outer))
	}
}

// BenchmarkFig16_WriteDistribution measures how evenly RAA traffic is
// spread after increasing write totals: the paper's curve approaches the
// diagonal (uniformity error → 0) by 10^13 writes.
func BenchmarkFig16_WriteDistribution(b *testing.B) {
	d, p := lifetime.ScaledSRBSGExperiment(7)
	var early, late float64
	for i := 0; i < b.N; i++ {
		c1, err := lifetime.WriteDistribution(d, p, 1e10/16, 11)
		if err != nil {
			b.Fatal(err)
		}
		c2, err := lifetime.WriteDistribution(d, p, 1e12/16, 11)
		if err != nil {
			b.Fatal(err)
		}
		early, late = stats.UniformityError(c1), stats.UniformityError(c2)
	}
	b.ReportMetric(early, "uniformity_err_1e10")
	b.ReportMetric(late, "uniformity_err_1e12")
}

// BenchmarkTableOverhead evaluates the Section V-C-3 hardware model at
// the recommended configuration: ≈2 KB registers, 0.5 MB SRAM.
func BenchmarkTableOverhead(b *testing.B) {
	var o analytic.Overhead
	for i := 0; i < b.N; i++ {
		o = analytic.ComputeOverhead(analytic.OverheadParams{
			Lines: 1 << 22, Regions: 512,
			InnerInterval: 64, OuterInterval: 128,
			Stages: 7, LineBytes: 256,
		})
	}
	b.ReportMetric(float64(o.RegisterBits)/8/1024, "register_kb")
	b.ReportMetric(float64(o.SRAMBits)/8/1024/1024, "sram_mb")
	b.ReportMetric(float64(o.Gates), "gates")
}

// BenchmarkPerfImpact runs the Section V-C-4 experiment on a PARSEC
// subset at ψ_inner = 64: the paper reports 1.02% average degradation.
func BenchmarkPerfImpact(b *testing.B) {
	cfg := perfmodel.DefaultConfig()
	cfg.RequestsPerCore = 4000
	factory := func(lines uint64) (wear.Scheme, error) {
		return core.New(core.Config{
			Lines: lines, Regions: 64, InnerInterval: 64,
			OuterInterval: 128, Stages: 7, Seed: 7,
		})
	}
	var avg float64
	for i := 0; i < b.N; i++ {
		var err error
		_, avg, err = perfmodel.RunSuite(cfg, workload.PARSEC[:6], factory)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(avg, "parsec_degradation_pct")
}

// BenchmarkRTAEndToEnd runs the complete Section III-B timing attack
// against a small RBSG instance — alignment, full sequence recovery and
// wear-out — and reports the attacker's write budget.
func BenchmarkRTAEndToEnd(b *testing.B) {
	var writes uint64
	for i := 0; i < b.N; i++ {
		s := rbsg.MustNew(rbsg.Config{Lines: 256, Regions: 8, Interval: 4, Seed: 5})
		c := wear.MustNewController(pcm.Config{
			Endurance: 500, Timing: pcm.DefaultTiming,
		}, s)
		a := &attack.RTARBSG{
			Target: c, Lines: 256, Regions: 8, Interval: 4, Li: 17, SeqLen: 6,
			Oracle: func() bool { return c.Bank().Failed() },
		}
		res, err := a.Run()
		if err != nil || !res.Failed {
			b.Fatalf("attack failed: %v", err)
		}
		writes = res.Writes
	}
	b.ReportMetric(float64(writes), "attacker_writes")
}

// --- microbenchmarks: the per-access costs of each translation layer ---

func benchScheme(b *testing.B, s wear.Scheme) {
	b.Helper()
	n := s.LogicalLines()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += s.Translate(uint64(i) & (n - 1))
	}
	_ = sink
}

// BenchmarkTranslateStartGap measures the plain Start-Gap lookup.
func BenchmarkTranslateStartGap(b *testing.B) {
	s, _ := startgap.NewSingle(1<<16, 100)
	benchScheme(b, s)
}

// BenchmarkTranslateRBSG measures RBSG (3-stage static Feistel + region
// Start-Gap).
func BenchmarkTranslateRBSG(b *testing.B) {
	benchScheme(b, rbsg.MustNew(rbsg.Config{Lines: 1 << 16, Regions: 64, Interval: 100, Seed: 1}))
}

// BenchmarkTranslateTwoLevelSR measures two-level Security Refresh.
func BenchmarkTranslateTwoLevelSR(b *testing.B) {
	benchScheme(b, secref.MustNewTwoLevel(secref.TwoLevelConfig{
		Lines: 1 << 16, Regions: 64, InnerInterval: 64, OuterInterval: 128, Seed: 1,
	}))
}

// BenchmarkTranslateSecurityRBSG measures the full 7-stage DFN + isRemap
// + inner Start-Gap path (the paper budgets 10 ns in hardware).
func BenchmarkTranslateSecurityRBSG(b *testing.B) {
	benchScheme(b, core.MustNew(core.Config{
		Lines: 1 << 16, Regions: 64, InnerInterval: 64,
		OuterInterval: 128, Stages: 7, Seed: 1,
	}))
}

// BenchmarkControllerWrite measures the simulator's full write path
// (translate + device + wear + remap bookkeeping).
func BenchmarkControllerWrite(b *testing.B) {
	s := core.MustNew(core.Config{
		Lines: 1 << 16, Regions: 64, InnerInterval: 64,
		OuterInterval: 128, Stages: 7, Seed: 1,
	})
	c := wear.MustNewController(pcm.Config{
		Endurance: pcm.MaxEndurance, Timing: pcm.DefaultTiming,
	}, s)
	for i := 0; i < b.N; i++ {
		c.Write(uint64(i)&(1<<16-1), pcm.Mixed)
	}
}

// --- perf-gate guard benchmarks (see scripts/bench_gate.sh) ---
//
// The six benchmarks guarded by the CI regression gate are
// BenchmarkFeistelMapTable, BenchmarkTranslateSecurityRBSG,
// BenchmarkControllerWrite, BenchmarkLifetimeRAAScaled,
// BenchmarkBankWriteN and BenchmarkExactEpochFastForward — the pure
// mapping kernel, both ends of the per-access path, the end-to-end
// Monte-Carlo kernel, and the exact tier's bulk-write and epoch
// fast-forward kernels. They avoid HTTP/network layers so the gate
// measures our code, not the harness.

// BenchmarkFeistelMapDirect evaluates the 7-stage cube-function Feistel
// network directly — the per-access cost Security RBSG would pay with
// no materialized tables.
func BenchmarkFeistelMapDirect(b *testing.B) {
	n := feistel.MustRandom(16, 7, stats.NewRNG(1))
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += n.Encrypt(uint64(i) & (1<<16 - 1))
	}
	_ = sink
}

// BenchmarkFeistelMapTable evaluates the same permutation through the
// materialized lookup table. One op is eight independent lookups into
// separate sums: a single ~0.5 ns lookup per iteration timed mostly the
// loop itself, so its ns/op moved with where the linker placed that loop
// relative to a cache line, and a guard on it failed at random whenever
// code linked before it changed size.
func BenchmarkFeistelMapTable(b *testing.B) {
	t := feistel.MustNewTable(feistel.MustRandom(16, 7, stats.NewRNG(1)))
	const mask = 1<<16 - 1
	var s0, s1, s2, s3, s4, s5, s6, s7 uint64
	for i := 0; i < b.N; i++ {
		x := uint64(i) * 8
		s0 += t.Encrypt(x & mask)
		s1 += t.Encrypt((x + 1) & mask)
		s2 += t.Encrypt((x + 2) & mask)
		s3 += t.Encrypt((x + 3) & mask)
		s4 += t.Encrypt((x + 4) & mask)
		s5 += t.Encrypt((x + 5) & mask)
		s6 += t.Encrypt((x + 6) & mask)
		s7 += t.Encrypt((x + 7) & mask)
	}
	_ = s0 + s1 + s2 + s3 + s4 + s5 + s6 + s7
}

// BenchmarkFeistelTableFill measures the per-remapping-round cost the
// table trades for: one full rebuild of both directions.
func BenchmarkFeistelTableFill(b *testing.B) {
	rng := stats.NewRNG(1)
	n := feistel.MustRandom(16, 7, rng)
	t := feistel.MustNewTable(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.RekeyRandom(rng)
		t.MustFill(n)
	}
}

// BenchmarkLifetimeRAAScaled is the designated end-to-end Monte-Carlo
// guard: one full RAA trial against Security RBSG at the scaled
// geometry, reusing the simulator's flat arrays (~0 allocs/op).
func BenchmarkLifetimeRAAScaled(b *testing.B) {
	d, p := lifetime.ScaledSRBSGExperiment(7)
	sim, err := lifetime.NewRAASim(d, p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var frac float64
	for i := 0; i < b.N; i++ {
		frac = sim.Run(uint64(i) + 42).FractionOfIdeal
	}
	b.ReportMetric(frac*100, "pct_of_ideal")
}

// BenchmarkBankWriteN measures the bulk demand-write kernel the exact
// tier batches pinned write streams through: each op applies 1000
// writes to one line — clock, wear and first-failure accounting exact —
// in O(1). A regression here means WriteN lost its constant-time path.
func BenchmarkBankWriteN(b *testing.B) {
	bank := pcm.MustNewBank(pcm.Config{
		Lines: 1 << 10, Endurance: pcm.MaxEndurance, Timing: pcm.DefaultTiming,
	})
	for i := 0; i < b.N; i++ {
		bank.WriteN(uint64(i)&(1<<10-1), pcm.Mixed, 1000)
	}
	b.ReportMetric(1000*float64(b.N)/b.Elapsed().Seconds(), "line_writes_per_sec")
}

// exactEpochTarget is a plain attack.Target wrapper hiding the batch
// capabilities, so the naive reference below takes the write-by-write
// paths everywhere.
type exactEpochTarget struct{ c *wear.Controller }

func (t exactEpochTarget) Write(la uint64, content pcm.Content) uint64 {
	return t.c.Write(la, content)
}
func (t exactEpochTarget) Read(la uint64) (pcm.Content, uint64) { return t.c.Read(la) }

// exactEpochRun executes the full RTA against RBSG at 2^18 lines —
// alignment, sequence recovery, wear-out to device failure.
func exactEpochRun(b *testing.B, fast bool) attack.Result {
	b.Helper()
	const lines, regions, interval, endurance = 1 << 18, 32, 100, 10_000_000
	s := rbsg.MustNew(rbsg.Config{Lines: lines, Regions: regions, Interval: interval, Seed: 42})
	c := wear.MustNewController(pcm.Config{
		Endurance: endurance, Timing: pcm.DefaultTiming,
	}, s)
	var target attack.Target = exactEpochTarget{c}
	if fast {
		target = exactsim.NewFastTarget(c, 0)
	}
	// n_seq = ceil(E/((n+1)·ψ)) plus one spare predecessor, as in
	// cmd/lifetime -exact.
	per := uint64(lines / regions)
	seqLen := (endurance+(per+1)*interval-1)/((per+1)*interval) + 1
	a := &attack.RTARBSG{
		Target: target, Lines: lines, Regions: regions, Interval: interval,
		Li: 17, SeqLen: seqLen,
		Oracle: func() bool { return c.Bank().Failed() },
	}
	res, err := a.Run()
	if err != nil || !res.Failed {
		b.Fatalf("attack failed: %v", err)
	}
	return res
}

// exactEpochNaive memoizes the naive reference, which is too slow to
// rerun per benchmark invocation.
var exactEpochNaive struct {
	once   sync.Once
	secs   float64
	writes uint64
}

// BenchmarkExactEpochFastForward is the exact tier's headline guard: the
// complete RTA-on-RBSG at 2^18 lines through the acceleration layer
// (parallel sweep kernels + batched hammer epochs), with the naive
// write-by-write run measured once as the reference. The PR's
// acceptance floor is speedup_vs_naive >= 5; identical attacker write
// counts double-check exactness (the differential suite in
// internal/exactsim proves full bit-identity).
func BenchmarkExactEpochFastForward(b *testing.B) {
	exactEpochNaive.once.Do(func() {
		start := time.Now()
		res := exactEpochRun(b, false)
		exactEpochNaive.secs = time.Since(start).Seconds()
		exactEpochNaive.writes = res.Writes
	})
	b.ResetTimer()
	var res attack.Result
	for i := 0; i < b.N; i++ {
		res = exactEpochRun(b, true)
	}
	if res.Writes != exactEpochNaive.writes {
		b.Fatalf("fast attack issued %d writes, naive %d: exactness broken",
			res.Writes, exactEpochNaive.writes)
	}
	fastSecs := b.Elapsed().Seconds() / float64(b.N)
	b.ReportMetric(exactEpochNaive.secs/fastSecs, "speedup_vs_naive")
	b.ReportMetric(float64(res.Writes), "attacker_writes")
}

// --- ablations: the design choices DESIGN.md calls out ---

// BenchmarkAblation_MigrationSpareWear compares the two outer-level
// migration strategies of Security RBSG: the paper's spare-line walk
// (MigrationMove) concentrates one write per permutation cycle on the
// spare, while the default swap walk spreads remap wear evenly. The
// reported ratio is the spare line's wear over the average line's after
// ten remapping rounds.
func BenchmarkAblation_MigrationSpareWear(b *testing.B) {
	var hotspot float64
	for i := 0; i < b.N; i++ {
		s := core.MustNew(core.Config{
			Lines: 256, Regions: 8, InnerInterval: 3,
			OuterInterval: 5, Stages: 7, Migration: core.MigrationMove, Seed: 15,
		})
		c := wear.MustNewController(pcm.Config{
			Endurance: pcm.MaxEndurance, Timing: pcm.DefaultTiming,
		}, s)
		for s.Rounds() < 10 {
			c.Write(0, pcm.Mixed)
		}
		sparePA := s.PhysicalLines() - 1
		var sum uint64
		for pa := uint64(0); pa < sparePA; pa++ {
			sum += c.Bank().Wear(pa)
		}
		hotspot = float64(c.Bank().Wear(sparePA)) / (float64(sum) / float64(sparePA))
	}
	b.ReportMetric(hotspot, "spare_wear_over_avg")
}

// BenchmarkAblation_DetectorVsBPA measures the HPCA'11-style online
// detector: Birthday-Paradox writes to failure with and without the
// remapping-rate boost.
func BenchmarkAblation_DetectorVsBPA(b *testing.B) {
	const endurance = 3000
	bankCfg := pcm.Config{Endurance: endurance, Timing: pcm.DefaultTiming}
	mkBase := func() *rbsg.Scheme {
		return rbsg.MustNew(rbsg.Config{Lines: 256, Regions: 8, Interval: 8, Seed: 7})
	}
	var plainW, detW float64
	for i := 0; i < b.N; i++ {
		plain := wear.MustNewController(bankCfg, mkBase())
		plainW = float64(attack.BPA(plain, mkBase().LineVulnerabilityFactor(), pcm.Mixed, 1, 0).Writes)
		det, err := detector.NewAdaptiveRBSG(mkBase(), detector.Config{Window: 256, AlarmShare: 0.6, Boost: 8})
		if err != nil {
			b.Fatal(err)
		}
		dc := wear.MustNewController(bankCfg, det)
		detW = float64(attack.BPA(dc, mkBase().LineVulnerabilityFactor(), pcm.Mixed, 1, 0).Writes)
	}
	b.ReportMetric(plainW, "bpa_writes_plain")
	b.ReportMetric(detW, "bpa_writes_detector")
	b.ReportMetric(detW/plainW, "detector_gain")
}

// BenchmarkAblation_TableWLvsAIA quantifies the paper's Section II-B
// point against deterministic table-based wear leveling: blind hammering
// is leveled away, an informed adversary is not.
func BenchmarkAblation_TableWLvsAIA(b *testing.B) {
	const endurance = 3000
	bankCfg := pcm.Config{Endurance: endurance, Timing: pcm.DefaultTiming}
	mk := func() *wear.Controller {
		return wear.MustNewController(bankCfg,
			tablewl.MustNew(tablewl.Config{Lines: 64, Interval: 8, HotThreshold: 4}))
	}
	var aiaW, raaW float64
	for i := 0; i < b.N; i++ {
		aiaW = float64(attack.AIA(mk(), 42, pcm.Mixed, 0).Writes)
		raaW = float64(attack.RAA(mk(), 13, pcm.Mixed, 0).Writes)
	}
	b.ReportMetric(aiaW, "aia_writes")
	b.ReportMetric(raaW, "raa_writes")
	b.ReportMetric(raaW/aiaW, "determinism_penalty")
}

// BenchmarkAblation_RandomizerKind compares RBSG's two static
// randomizers (Feistel network vs random invertible binary matrix): both
// spread a spatially local write burst across regions about equally —
// the choice is a hardware-cost question, not a leveling one.
func BenchmarkAblation_RandomizerKind(b *testing.B) {
	spread := func(useMatrix bool) float64 {
		s := rbsg.MustNew(rbsg.Config{
			Lines: 1 << 14, Regions: 64, Interval: 64, UseMatrix: useMatrix, Seed: 3,
		})
		counts := make([]int, 64)
		for la := uint64(0); la < 4096; la++ { // one dense 1 MB burst
			counts[s.Intermediate(la)/s.LinesPerRegion()]++
		}
		max := 0
		for _, c := range counts {
			if c > max {
				max = c
			}
		}
		return float64(max) / (4096.0 / 64.0)
	}
	var f, m float64
	for i := 0; i < b.N; i++ {
		f, m = spread(false), spread(true)
	}
	b.ReportMetric(f, "feistel_max_over_mean")
	b.ReportMetric(m, "ribm_max_over_mean")
}
