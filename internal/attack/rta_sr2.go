package attack

import (
	"fmt"

	"securityrbsg/internal/pcm"
)

// RTATwoLevelSRExact is the Remapping Timing Attack against two-level
// Security Refresh (Section III-E) with *no oracle at all* — the
// attacker sees only its own writes and their latencies. The paper costs
// this attack but gives no step-level algorithm; this is one, run end to
// end.
//
// Key observations that make the exact attack work:
//
//   - Outer refresh steps fire on a schedule the attacker knows exactly:
//     one step every ψ_outer writes, counted from boot, with the round
//     wrapping every N steps. So the attacker knows, for every one of its
//     writes, whether an outer step fired and which logical address
//     (CRP value) it processed.
//
//   - An outer step processing address k swaps the *data* of k and
//     k XOR D (D = keyc XOR keyp of the outer level) if the pair is
//     still pending. After sweeping the memory with ALL-0/ALL-1 keyed by
//     logical-address bit j, the swap latency reveals whether bit j of k
//     and of its partner agree (500/2250 ns) or differ (1375 ns), i.e.
//     one bit of D — once per outer step, hundreds of times per round.
//     Inner refresh steps occasionally land on the same write and distort
//     one observation; since D is constant within the round, a majority
//     vote over many steps absorbs the noise. Impossible readings
//     (e.g. a 500 ns "both ALL-0" swap when bit j of k is 1) abstain.
//
//   - Sub-region co-membership is XOR-invariant: the logical group
//     {la : la >> log2(N/R) == c} always occupies one sub-region
//     (two mid-round). Only *which* physical sub-region changes per
//     round, by the high bits of D — exactly the bits the votes recover.
//     Tracking is therefore relative: flood group c this round, group
//     c XOR high(D') next round, and the same physical lines keep
//     absorbing the traffic.
//
// Each round the attacker spends log2(R) pattern sweeps plus the voting
// writes on detection — the paper's (N/2..N)·log2 R accounting — and
// floods the tracked group for the remainder, pinning one line per inner
// refresh round.
type RTATwoLevelSRExact struct {
	// Target is the memory under attack.
	Target Target
	// Lines, Regions, InnerInterval, OuterInterval mirror the victim's
	// (public) configuration.
	Lines, Regions, InnerInterval, OuterInterval uint64
	// Timing is the public device timing.
	Timing pcm.Timing
	// MaxWrites bounds the attack (0 = unbounded); Oracle stops it when
	// true (device failed).
	MaxWrites uint64
	Oracle    func() bool

	// Phases splits the writes by phase (diagnostics filled in by Run):
	// detection and the flood (WearWrites); there is no alignment.
	Phases
	// Rounds counts the outer rounds the attack detected in.
	Rounds uint64
	// RecoveredHighDs lists the per-round recovered high bits of
	// keyc XOR keyp, each with the outer round it was detected in, for
	// tests to check against truth.
	RecoveredHighDs []RoundDiff

	srShadow        // the outer level's step schedule
	n        uint64 // lines per sub-region
	lowBits  uint   // log2(n)
	probeSeq uint64 // rotates the voting probe address across rounds
}

// RoundDiff is one outer round's recovered key difference.
type RoundDiff struct {
	// Round is the outer round, counted from 0 at boot as
	// secref.OneLevel.Rounds counts completed rounds. The attacker knows
	// it from its own write count.
	Round uint64
	// D is the high log2(R) bits of keyc XOR keyp, shifted down, or
	// ^uint64(0) when the round rolled over before detection finished.
	D uint64
}

// votesPerBit is how many classified outer-step observations the attack
// gathers per key bit (odd, so the majority is strict).
const votesPerBit = 9

// Run executes the attack until the device fails or the budget is spent.
func (a *RTATwoLevelSRExact) Run() (Result, error) {
	if err := a.start(); err != nil {
		return Result{}, err
	}
	// The flood starts on logical group 0: its physical sub-region this
	// round becomes the pinned target.
	group := uint64(0)
	for {
		d, round, err := a.detectRoundHighD()
		if err != nil {
			return a.result(err)
		}
		if d != unknownD {
			group ^= d
		}
		a.RecoveredHighDs = append(a.RecoveredHighDs, RoundDiff{Round: round, D: d})
		a.Rounds++
		if err := a.floodUntilRoundEnd(group); err != nil {
			return a.result(err)
		}
	}
}

// start checks the configuration and boots the engine and the outer
// schedule.
func (a *RTATwoLevelSRExact) start() error {
	if err := checkGeometry(a.Lines, a.Regions, a.InnerInterval, a.OuterInterval); err != nil {
		return err
	}
	a.srShadow = newSRShadow(newEngine(a.Target, a.Lines, a.Timing, a.MaxWrites, a.Oracle), a.Lines, a.OuterInterval)
	a.Phases, a.Rounds, a.RecoveredHighDs = Phases{}, 0, nil
	a.n = a.Lines / a.Regions
	a.lowBits = addressBits(a.n)
	a.probeSeq = 0
	return nil
}

// unknownD marks a round whose key difference could not be recovered
// before the round rolled over; the attacker keeps flooding its previous
// group (best effort) and re-synchronizes next round.
const unknownD = ^uint64(0)

// detectRoundHighD waits for the round boundary, then recovers the high
// log2(R) bits of the next round's D by pattern sweeps and
// majority-voted outer-swap latencies. It returns them with that round's
// number.
func (a *RTATwoLevelSRExact) detectRoundHighD() (d, round uint64, err error) {
	start := a.res.Writes
	defer func() { a.DetectWrites += a.res.Writes - start }()

	// Advance to the round boundary so D stays stable below us. The
	// waiting writes rotate across the whole space so they add no
	// hotspot of their own.
	for w := uint64(0); a.sched.crp != a.Lines; w++ {
		if _, _, err := a.step(w%a.Lines, pcm.Zeros, 1); err != nil {
			return 0, 0, err
		}
	}
	// The detected round begins with the next step's re-key; the rounds
	// begun so far number it from 0.
	round = a.sched.rounds
	bits := addressBits(a.Regions)
	for j := a.lowBits; j < a.lowBits+bits; j++ {
		if a.sched.rounds > round+1 {
			// The round rolled over mid-detection (pathological no-swap
			// runs stretched the votes): this round's D is lost.
			return unknownD, round, nil
		}
		// Pattern sweep keyed by logical bit j. The first sweep of the
		// round rewrites everything (flooding left ALL-1 debris); later
		// sweeps only touch lines whose pattern changes between bits —
		// the paper's N/2 accounting.
		for la := uint64(0); la < a.Lines; la++ {
			if j > a.lowBits && patternOf(la, j) == patternOf(la, j-1) {
				continue
			}
			if _, _, err := a.step(la, patternOf(la, j), 1); err != nil {
				return 0, 0, err
			}
		}
		// Vote on outer-step swap latencies through a single probe
		// address. All probe writes land in one sub-region, so its inner
		// refresh counter is the only inner source of latency — and it
		// ticks once per probe write, making inner fires fully
		// predictable once their phase is calibrated. Votes are taken
		// only on collision-free outer steps, so every classified extra
		// is a pure outer swap. The probe rotates per round to avoid
		// becoming a wear hotspot of its own.
		probe := (a.probeSeq * 977) % a.Lines
		a.probeSeq++
		probeContent := patternOf(probe, j)

		// Calibrate the inner phase: an extra on a non-outer probe write
		// can only be an inner fire, which pins the sub-region counter to
		// zero. Anchoring just after an outer step guarantees (for
		// ψi < ψo) that at least one fire lands on a step-free write; if
		// fires hide under the outer comb anyway (ψo | ψi alignments), a
		// single off-group slip write shifts them out.
		innerCnt := uint64(0)
		calibrated := false
		for attempt := 0; attempt < 4 && !calibrated; attempt++ {
			// Move to just after an outer step.
			for {
				_, st, err := a.step(probe, probeContent, 1)
				if err != nil {
					return 0, 0, err
				}
				if st.fired {
					break
				}
			}
			// Budget: inner refresh steps can run through up to n/2
			// consecutive no-swap (already-refreshed) addresses whose
			// fires are invisible; ride the longest such run out.
			scan := a.InnerInterval * (a.n/2 + 2*a.OuterInterval)
			for w := uint64(0); w < scan; w++ {
				extra, st, err := a.step(probe, probeContent, 1)
				if err != nil {
					return 0, 0, err
				}
				if !st.fired && extra > 0 {
					innerCnt = 0 // just fired: counter known exactly
					calibrated = true
					break
				}
			}
			if !calibrated {
				// Fires are hiding under outer steps: slip the combs
				// apart and retry.
				off := probe ^ (1 << a.lowBits)
				if _, _, err := a.step(off, patternOf(off, j), 1); err != nil {
					return 0, 0, err
				}
			}
		}
		if !calibrated {
			return 0, 0, fmt.Errorf("attack: could not calibrate the inner refresh phase for bit %d", j)
		}
		// If the combs are locked — ψi divides ψo and every upcoming
		// outer step coincides with an inner fire — slip them apart with
		// writes to a different logical group: they advance the outer
		// schedule without ticking the probe's sub-region (groups never
		// share a sub-region under an XOR mapping).
		if calibrated && a.OuterInterval%a.InnerInterval == 0 {
			off := probe ^ (1 << a.lowBits)
			offContent := patternOf(off, j)
			for a.sched.left()%a.InnerInterval == (a.InnerInterval-innerCnt%a.InnerInterval)%a.InnerInterval {
				if _, _, err := a.step(off, offContent, 1); err != nil {
					return 0, 0, err
				}
			}
		}
		votes0, votes1 := 0, 0
		deadline := 64 * votesPerBit * a.OuterInterval
		for w := uint64(0); w < deadline && votes0+votes1 < votesPerBit; w++ {
			extra, st, err := a.step(probe, probeContent, 1)
			if err != nil {
				return 0, 0, err
			}
			innerCnt++
			innerFires := innerCnt >= a.InnerInterval
			if innerFires {
				innerCnt = 0
			}
			if !st.fired {
				if extra > 0 && !innerFires {
					// Phase slipped (the probe was remapped mid-round);
					// resynchronize on this observed fire.
					innerCnt = 0
				}
				continue
			}
			if innerFires || extra == 0 {
				continue // collided or no swap: abstain
			}
			switch kind, b := classifySwap(a.timing, extra), st.la>>j&1; {
			case kind == swapZeros && b == 0, kind == swapOnes && b == 1:
				votes0++ // partner matches the step's bit: D_j = 0
			case kind == swapMixed:
				votes1++
			default:
				// Unexpected value: an unmodeled collision; abstain.
			}
		}
		// Zero classifiable swaps over hundreds of steps means the key
		// difference itself is (almost surely) zero on every bit — a
		// no-op round — so 0 is both the fallback and the right answer.
		if votes1 > votes0 {
			d |= 1 << (j - a.lowBits)
		}
	}
	return d, round, nil
}

// floodUntilRoundEnd funnels every remaining write of the round into the
// tracked logical group, one inner refresh round per member so the inner
// SR pins each on a single physical line.
func (a *RTATwoLevelSRExact) floodUntilRoundEnd(group uint64) error {
	start := a.res.Writes
	defer func() { a.WearWrites += a.res.Writes - start }()
	stint := a.n * a.InnerInterval
	for i := uint64(0); ; i++ {
		la := group<<a.lowBits | (i % a.n)
		// The shadow CRP only changes on outer steps, which batch to the
		// end of each outer epoch; check the round boundary there.
		for w := uint64(0); w < stint; {
			k := min(a.sched.left(), stint-w)
			if _, _, err := a.step(la, pcm.Ones, k); err != nil {
				return err
			}
			w += k
			if a.sched.crp == a.Lines {
				return nil // round complete: re-detect before continuing
			}
		}
	}
}
