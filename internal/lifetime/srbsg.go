package lifetime

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"securityrbsg/internal/analytic"
	"securityrbsg/internal/feistel"
	"securityrbsg/internal/stats"
)

// This file holds the Security RBSG models behind Fig 14 (lifetime vs DFN
// stage count), Fig 15 (RAA over the configuration grid) and Fig 16 (wear
// distribution).

// SRBSGParams are the Security RBSG configuration knobs.
type SRBSGParams struct {
	Regions       uint64 // inner Start-Gap sub-regions
	InnerInterval uint64 // inner ψ
	OuterInterval uint64 // outer (DFN) ψ
	Stages        int    // DFN stage count — the security level
}

// SuggestedSRBSGParams mirrors the paper's recommended configuration.
func SuggestedSRBSGParams() SRBSGParams {
	return SRBSGParams{Regions: 512, InnerInterval: 64, OuterInterval: 128, Stages: 7}
}

// ScaledSRBSGExperiment returns a laptop-scale (device, params) pair that
// preserves the two ratios governing the RAA visit process at paper scale:
// visits-to-failure per line (m ≈ 191) and arc length relative to the
// sub-region (arcs must not wrap — at 1 GB an outer round's arc covers at
// most a few percent of a sub-region). Fractions-of-ideal measured at this
// scale transfer to the paper's device.
func ScaledSRBSGExperiment(stages int) (Device, SRBSGParams) {
	p := SRBSGParams{Regions: 64, InnerInterval: 64, OuterInterval: 128, Stages: stages}
	lines := uint64(1) << 18
	quantum := (lines/p.Regions + 1) * p.InnerInterval
	return ScaledDevice(lines, 191*quantum), p
}

// srbsgOverheadNs is the amortized remapping latency per demand write: one
// inner gap move per ψi writes to the hammered sub-region, one outer DFN
// move per ψo bank writes, both read+copy on generic data.
func srbsgOverheadNs(d Device, p SRBSGParams) float64 {
	move := float64(d.Timing.ReadNs + d.Timing.SetNs)
	return move/float64(p.InnerInterval) + move/float64(p.OuterInterval)
}

// arcSim is the visit-process simulator for RAA against Security RBSG.
//
// The hammered logical address is pinned, by the inner Start-Gap, to one
// physical slot for one region rotation ((n+1)·ψ_inner writes — one
// visit), and then walks to the next slot: within an outer round the
// visits form a contiguous arc. Where that arc starts is decided by the
// Dynamic Feistel Network: each outer round draws fresh keys and the
// hammered address's intermediate address jumps to ENC_keys(la) — this is
// the only place the stage count enters, and it enters through the *real*
// Feistel construction, so the low-stage bias that Fig 14 shows (3 stages
// ≈ 20% of ideal) emerges from the cipher itself rather than from a
// fitted parameter.
type arcSim struct {
	d    Device
	p    SRBSGParams
	bits uint
	n    uint64 // lines per sub-region
	slot uint64 // physical slots per sub-region (n+1)

	counts  []uint16 // visits per physical slot
	drift   []uint64 // inner rotation offset per sub-region
	rng     *stats.RNG
	m       uint16 // visits to failure
	quantum uint64 // writes per visit

	// The reusable DFN: net holds the stage keys and is rekeyed in
	// place for every round (exactly the RNG draws a fresh construction
	// would make, so the visit sequence is bit-identical to allocating
	// anew), perm is net — cycle-walked for odd widths. Built lazily on
	// the first draw so construction itself consumes no RNG words.
	net  *feistel.Network
	perm feistel.Permutation

	failed   bool
	failSlot uint64
}

func newArcSim(d Device, p SRBSGParams, seed uint64) (*arcSim, error) {
	if d.Lines == 0 || d.Lines&(d.Lines-1) != 0 {
		return nil, fmt.Errorf("lifetime: lines must be a power of two, got %d", d.Lines)
	}
	if p.Regions == 0 || d.Lines%p.Regions != 0 {
		return nil, fmt.Errorf("lifetime: regions %d must divide lines %d", p.Regions, d.Lines)
	}
	s := &arcSim{
		d: d, p: p,
		n:       d.Lines / p.Regions,
		rng:     stats.NewRNG(seed),
		quantum: (d.Lines/p.Regions + 1) * p.InnerInterval,
	}
	s.slot = s.n + 1
	m := math.Ceil(float64(d.Endurance) / float64(s.quantum))
	if m < 1 {
		m = 1
	}
	if m > 65535 {
		return nil, fmt.Errorf("lifetime: visit threshold %g overflows the counter; scale endurance down", m)
	}
	s.m = uint16(m)
	s.counts = make([]uint16, p.Regions*s.slot)
	s.drift = make([]uint64, p.Regions)
	for v := d.Lines; v > 1; v >>= 1 {
		s.bits++
	}
	return s, nil
}

// reset rewinds the simulator to a fresh run of the same geometry on a
// new seed, reusing every flat array. A reset sim is indistinguishable
// from a newly constructed one: the key network keeps its allocation
// but its first redraw consumes the same RNG words a fresh construction
// would.
func (s *arcSim) reset(seed uint64) {
	clear(s.counts)
	clear(s.drift)
	s.rng.Seed(seed)
	s.failed = false
	s.failSlot = 0
}

// nextPerm draws the next round's DFN permutation (cycle-walked for odd
// widths): the first call builds the network, every later call rekeys
// it in place — zero allocations per round.
func (s *arcSim) nextPerm() feistel.Permutation {
	if s.net == nil {
		width := s.bits
		if width%2 != 0 {
			width++
		}
		s.net = feistel.MustRandom(width, s.p.Stages, s.rng)
		s.perm = s.net
		if s.bits%2 != 0 {
			// Cannot fail: Lines ≤ 2^(bits+1) by the width derivation.
			s.perm = feistel.MustNewWalker(s.net, s.d.Lines)
		}
		return s.perm
	}
	s.net.RekeyRandom(s.rng)
	return s.perm
}

// deposit places `visits` consecutive slot-visits for intermediate
// address ia, starting from the sub-region's current rotation position.
// Short arcs (the overwhelmingly common case: an arc touches each slot
// at most once) split into at most two contiguous segments around the
// wrap point, so the inner loop is a branch-light sequential counter
// sweep — this loop is where Monte-Carlo lifetime estimation spends
// ~90% of its time at paper scale.
func (s *arcSim) deposit(ia uint64, visits uint64) {
	region := ia / s.n
	base := region * s.slot
	pos := (ia%s.n + s.drift[region]) % s.slot
	if visits < s.slot {
		first := visits
		if first > s.slot-pos {
			first = s.slot - pos
		}
		s.bump(base+pos, first)
		if rest := visits - first; rest > 0 {
			s.bump(base, rest)
		}
	} else {
		// Arcs longer than the region lap it: keep the exact per-visit
		// walk so multi-lap threshold crossings stay in deposit order.
		for k := uint64(0); k < visits; k++ {
			idx := base + pos
			c := s.counts[idx] + 1
			s.counts[idx] = c
			if c >= s.m && !s.failed {
				s.failed = true
				s.failSlot = idx
			}
			pos++
			if pos == s.slot {
				pos = 0
			}
		}
	}
	s.drift[region] += visits
}

// bump increments counts[start:start+n], recording the first counter
// (in deposit order) to cross the failure threshold.
func (s *arcSim) bump(start, n uint64) {
	seg := s.counts[start : start+n]
	m := s.m
	for i := range seg {
		c := seg[i] + 1
		seg[i] = c
		if c >= m && !s.failed {
			s.failed = true
			s.failSlot = start + uint64(i)
		}
	}
}

// run hammers one logical address until a slot fails or maxWrites demand
// writes have been spent; it returns the demand writes issued. Fractional
// visits are carried across deposits so small rounds still make progress.
func (s *arcSim) run(la uint64, maxWrites float64) float64 {
	roundWrites := float64(s.d.Lines) * float64(s.p.OuterInterval)
	visitsPerRound := roundWrites / float64(s.quantum)
	cur := s.nextPerm().Encrypt(la)
	var writes, carry float64
	emit := func(ia uint64, v float64) {
		carry += v
		whole := math.Floor(carry)
		carry -= whole
		s.deposit(ia, uint64(whole))
	}
	for !s.failed && (maxWrites <= 0 || writes < maxWrites) {
		next := s.nextPerm().Encrypt(la)
		// The DFN relocates la at a uniformly random point in the round
		// (its position in the remapping cycle walk).
		u := s.rng.Float64()
		emit(cur, u*visitsPerRound)
		emit(next, (1-u)*visitsPerRound)
		cur = next
		writes += roundWrites
	}
	return writes
}

// RAASim is a reusable Monte-Carlo simulator for RAA against Security
// RBSG: one instance holds the flat visit-count and rotation arrays
// (megabytes at paper scale) and the key network, and successive Run
// calls reuse them all — a repetition allocates nothing. Not safe for
// concurrent use; callers shard by running one RAASim per goroutine, as
// RAAOnSecurityRBSGAvg does.
type RAASim struct {
	d   Device
	p   SRBSGParams
	sim *arcSim
}

// NewRAASim validates the geometry and preallocates the simulation
// state.
func NewRAASim(d Device, p SRBSGParams) (*RAASim, error) {
	sim, err := newArcSim(d, p, 0)
	if err != nil {
		return nil, err
	}
	return &RAASim{d: d, p: p, sim: sim}, nil
}

// Run simulates one hammering trial under the given seed and returns
// its lifetime estimate.
func (r *RAASim) Run(seed uint64) Estimate {
	r.sim.reset(seed)
	writes := r.sim.run(seed%r.d.Lines, 0)
	perWrite := float64(r.d.Timing.SetNs) + srbsgOverheadNs(r.d, r.p)
	return Estimate{
		Scheme: "security-rbsg", Attack: "raa",
		Writes:          writes,
		Seconds:         Seconds(writes, perWrite),
		FractionOfIdeal: writes / r.d.IdealWrites(),
	}
}

// RAAOnSecurityRBSGAvg simulates hammering one logical address against
// Security RBSG (Figs 14 and 15) with real DFN key draws, averaged over
// `runs` seeds — matching the paper's five-trial averaging. The trials
// are independent Monte-Carlo simulations, so they spread over parallel
// workers (at most GOMAXPROCS), each worker reusing one RAASim's
// preallocated arrays across its share of the trials; results are
// accumulated in trial order, keeping the average bit-for-bit
// deterministic for a given seed regardless of worker count.
func RAAOnSecurityRBSGAvg(d Device, p SRBSGParams, runs int, seed uint64) (Estimate, error) {
	if runs <= 0 {
		runs = 5
	}
	workers := runs
	if n := runtime.GOMAXPROCS(0); workers > n {
		workers = n
	}
	ests := make([]Estimate, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var sim *RAASim
			for i := w; i < runs; i += workers {
				if sim == nil {
					var err error
					if sim, err = NewRAASim(d, p); err != nil {
						errs[i] = err
						return
					}
				}
				ests[i] = sim.Run(seed + uint64(i)*0x9e37)
			}
		}(w)
	}
	wg.Wait()
	var acc Estimate
	for i := 0; i < runs; i++ {
		if errs[i] != nil {
			return Estimate{}, errs[i]
		}
		acc.Writes += ests[i].Writes
		acc.Seconds += ests[i].Seconds
		acc.FractionOfIdeal += ests[i].FractionOfIdeal
	}
	acc.Scheme, acc.Attack = "security-rbsg", "raa"
	acc.Writes /= float64(runs)
	acc.Seconds /= float64(runs)
	acc.FractionOfIdeal /= float64(runs)
	return acc, nil
}

// BPAOnSecurityRBSG models the Birthday Paradox Attack: each randomly
// chosen logical address is hammered for one inner rotation, so visits
// are exactly uniform over the physical space no matter how weak the DFN
// is (a bijection maps the uniform address choice to a uniform
// intermediate address) — which is why Fig 14's BPA curve is flat across
// stage counts.
func BPAOnSecurityRBSG(d Device, p SRBSGParams) Estimate {
	quantum := (d.Lines/p.Regions + 1) * p.InnerInterval
	writes := uniformVisitLifetime(d, d.Lines, quantum)
	perWrite := float64(d.Timing.SetNs) + srbsgOverheadNs(d, p)
	return Estimate{
		Scheme: "security-rbsg", Attack: "bpa",
		Writes:          writes,
		Seconds:         Seconds(writes, perWrite),
		FractionOfIdeal: writes / d.IdealWrites(),
	}
}

// RTAOnSecurityRBSG evaluates the Remapping Timing Attack against
// Security RBSG. When the configuration satisfies the Section IV-B
// security condition (S·B ≥ ψ_outer — see analytic.MinStages) the DFN
// re-keys before key extraction can finish, every recovered bit goes
// stale, and the attacker can do no better than RAA; the returned
// estimate is then the RAA lifetime and secure is true. Otherwise the
// configuration leaks and the attack degenerates toward the two-level-SR
// RTA cost model (secure false).
func RTAOnSecurityRBSG(d Device, p SRBSGParams, seed uint64) (est Estimate, secure bool, err error) {
	if analytic.DetectionOutrunsKeys(p.Stages, d.AddressBits(), p.OuterInterval) {
		e := RTAOnTwoLevelSR(d, SRParams{
			Regions:       p.Regions,
			InnerInterval: p.InnerInterval,
			OuterInterval: p.OuterInterval,
		}, 0.75)
		e.Scheme = "security-rbsg"
		return e, false, nil
	}
	e, err := RAAOnSecurityRBSGAvg(d, p, 5, seed)
	if err != nil {
		return Estimate{}, false, err
	}
	e.Attack = "rta"
	return e, true, nil
}

// WriteDistribution reproduces Fig 16: the per-line accumulated write
// counts across the physical space after totalWrites RAA writes against
// Security RBSG (demand writes plus inner remapping copies). Slot counts
// are returned in physical order for stats.NormalizedCumulative.
func WriteDistribution(d Device, p SRBSGParams, totalWrites float64, seed uint64) ([]uint32, error) {
	// Run the arc simulator without a failure threshold: endurance is
	// irrelevant here, only deposit geometry matters.
	big := d
	quantum := (d.Lines/p.Regions + 1) * p.InnerInterval
	big.Endurance = quantum * 65000 // effectively never fails
	s, err := newArcSim(big, p, seed)
	if err != nil {
		return nil, err
	}
	s.run(seed%d.Lines, totalWrites)
	out := make([]uint32, len(s.counts))
	perVisit := uint32(s.quantum)
	for i, c := range s.counts {
		out[i] = uint32(c) * perVisit
	}
	// Inner remapping copies: every rotation (= one deposited visit)
	// writes each slot in the region once.
	for r := uint64(0); r < s.p.Regions; r++ {
		rot := uint32(s.drift[r])
		base := r * s.slot
		for k := uint64(0); k < s.slot; k++ {
			out[base+k] += rot
		}
	}
	return out, nil
}
