package attack

import (
	"errors"
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
	// Group is the initial logical group to flood (its physical
	// sub-region this round becomes the pinned target). Defaults to 0.
	Group uint64
	// VotesPerBit is how many classified outer-step observations to
	// gather per key bit (default 9; must be odd).
	VotesPerBit int
	// MaxWrites bounds the attack (0 = unbounded); Oracle stops it when
	// true (device failed).
	MaxWrites uint64
	Oracle    func() bool
	// Debug, when set, receives diagnostic trace lines.
	Debug func(format string, args ...any)

	// shadow state
	n          uint64 // lines per sub-region
	lowBits    uint   // log2(n)
	cnt        uint64 // writes since the last outer step
	crp        uint64 // outer CRP in [0, N]; Lines means "round complete"
	roundsSeen uint64 // outer CRP wraps observed since boot
	probeSeq   uint64 // rotates the voting probe address across rounds

	res Result
	// Diagnostics
	DetectWrites uint64
	FloodWrites  uint64
	Rounds       uint64
	// RecoveredHighDs lists the per-round recovered high bits of
	// keyc XOR keyp (shifted down), for tests to check against truth.
	RecoveredHighDs []uint64
}

// Run executes the attack until the device fails or the budget is spent.
func (a *RTATwoLevelSRExact) Run() (Result, error) {
	if a.Lines == 0 || a.Lines&(a.Lines-1) != 0 {
		return Result{}, fmt.Errorf("attack: lines must be a power of two, got %d", a.Lines)
	}
	if a.Regions == 0 || a.Lines%a.Regions != 0 || a.InnerInterval == 0 || a.OuterInterval == 0 {
		return Result{}, fmt.Errorf("attack: bad SR parameters")
	}
	if a.Timing == (pcm.Timing{}) {
		a.Timing = pcm.DefaultTiming
	}
	if a.VotesPerBit <= 0 {
		a.VotesPerBit = 9
	}
	if a.VotesPerBit%2 == 0 {
		a.VotesPerBit++
	}
	a.n = a.Lines / a.Regions
	for v := a.n; v > 1; v >>= 1 {
		a.lowBits++
	}
	a.crp = a.Lines // boot state: previous round complete

	group := a.Group % a.Regions
	for {
		d, err := a.detectRoundHighD()
		if err != nil {
			return a.res, a.finish(err)
		}
		if d != unknownD {
			group ^= d
		}
		a.RecoveredHighDs = append(a.RecoveredHighDs, d)
		a.Rounds++
		if err := a.floodUntilRoundEnd(group); err != nil {
			return a.res, a.finish(err)
		}
	}
}

// unknownD marks a round whose key difference could not be recovered
// before the round rolled over; the attacker keeps flooding its previous
// group (best effort) and re-synchronizes next round.
const unknownD = ^uint64(0)

func (a *RTATwoLevelSRExact) finish(err error) error {
	if errors.Is(err, errStopped) {
		return nil
	}
	return err
}

// write issues one attacker write, advances the outer shadow, and
// returns (extra latency, outer step fired, CRP value it processed).
func (a *RTATwoLevelSRExact) write(la uint64, c pcm.Content) (extra uint64, stepped bool, stepLA uint64, err error) {
	if a.Oracle != nil && a.Oracle() {
		a.res.Failed = true
		return 0, false, 0, errStopped
	}
	if a.MaxWrites > 0 && a.res.Writes >= a.MaxWrites {
		return 0, false, 0, errStopped
	}
	ns := a.Target.Write(la, c)
	a.res.Writes++
	a.res.AttackNs += ns
	extra = ns - a.Timing.WriteNs(c)
	a.cnt++
	if a.cnt >= a.OuterInterval {
		a.cnt = 0
		if a.crp == a.Lines {
			a.crp = 0
			a.roundsSeen++
		}
		stepLA = a.crp
		a.crp++
		stepped = true
	}
	return extra, stepped, stepLA, nil
}

// writeN issues k consecutive writes of c to la (1 ≤ k ≤ OuterInterval −
// cnt, so only the k-th write can carry an outer step) and advances the
// outer shadow in lock-step. Batch-boundary Oracle/budget semantics are
// as in RTARBSG.writeN — exact for the device-failure oracle. Extra
// latencies are not reported: its only caller (the flood phase) never
// inspects them; the detection phases, which do, stay write-by-write.
func (a *RTATwoLevelSRExact) writeN(la uint64, c pcm.Content, k uint64) error {
	bt, batched := a.Target.(BatchTarget)
	if !batched || k < 2 {
		for j := uint64(0); j < k; j++ {
			if _, _, _, err := a.write(la, c); err != nil {
				return err
			}
		}
		return nil
	}
	if a.Oracle != nil && a.Oracle() {
		a.res.Failed = true
		return errStopped
	}
	want := k
	if a.MaxWrites > 0 {
		if a.res.Writes >= a.MaxWrites {
			return errStopped
		}
		if rem := a.MaxWrites - a.res.Writes; want > rem {
			want = rem
		}
	}
	var issued uint64
	var err error
	for issued < want {
		got, ns := bt.WriteRun(la, c, want-issued, a.Oracle != nil, nil)
		issued += got
		a.res.Writes += got
		a.res.AttackNs += ns
		if issued == want {
			break
		}
		if a.Oracle() {
			a.res.Failed = true
			err = errStopped
			break
		}
	}
	a.cnt += issued
	if a.cnt >= a.OuterInterval {
		if a.cnt > a.OuterInterval {
			panic(fmt.Errorf("attack: writeN(%d) crossed an outer step", k))
		}
		a.cnt = 0
		if a.crp == a.Lines {
			a.crp = 0
			a.roundsSeen++
		}
		a.crp++
	}
	if err == nil && issued < k {
		err = errStopped // budget exhausted, like the naive precheck
	}
	return err
}

// detectRoundHighD waits for the round boundary, then recovers the high
// log2(R) bits of this round's D by pattern sweeps and majority-voted
// outer-swap latencies.
func (a *RTATwoLevelSRExact) detectRoundHighD() (uint64, error) {
	start := a.res.Writes
	defer func() { a.DetectWrites += a.res.Writes - start }()

	// Advance to the round boundary so D stays stable below us. The
	// waiting writes rotate across the whole space so they add no
	// hotspot of their own.
	for w := uint64(0); a.crp != a.Lines && a.crp != 0; w++ {
		if _, _, _, err := a.write(w%a.Lines, pcm.Zeros); err != nil {
			return 0, err
		}
	}
	epoch := a.roundsSeen
	if a.crp == a.Lines {
		epoch++ // the detected round begins on the next step's re-key
	}
	var d uint64
	bits := uint(0)
	for v := a.Regions; v > 1; v >>= 1 {
		bits++
	}
	for j := a.lowBits; j < a.lowBits+bits; j++ {
		if a.roundsSeen > epoch {
			// The round rolled over mid-detection (pathological no-swap
			// runs stretched the votes): this round's D is lost.
			if a.Debug != nil {
				a.Debug("round lost at bit %d: roundsSeen=%d epoch=%d crp=%d", j, a.roundsSeen, epoch, a.crp)
			}
			return unknownD, nil
		}
		// Pattern sweep keyed by logical bit j. The first sweep of the
		// round rewrites everything (flooding left ALL-1 debris); later
		// sweeps only touch lines whose pattern changes between bits —
		// the paper's N/2 accounting.
		for la := uint64(0); la < a.Lines; la++ {
			if j > a.lowBits && patternOf(la, j) == patternOf(la, j-1) {
				continue
			}
			if _, _, _, err := a.write(la, patternOf(la, j)); err != nil {
				return 0, err
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
				_, stepped, _, err := a.write(probe, probeContent)
				if err != nil {
					return 0, err
				}
				if stepped {
					break
				}
			}
			// Budget: inner refresh steps can run through up to n/2
			// consecutive no-swap (already-refreshed) addresses whose
			// fires are invisible; ride the longest such run out.
			scan := a.InnerInterval * (a.n/2 + 2*a.OuterInterval)
			for w := uint64(0); w < scan; w++ {
				extra, stepped, _, err := a.write(probe, probeContent)
				if err != nil {
					return 0, err
				}
				if !stepped && extra > 0 {
					innerCnt = 0 // just fired: counter known exactly
					calibrated = true
					break
				}
			}
			if !calibrated {
				// Fires are hiding under outer steps: slip the combs
				// apart and retry.
				off := probe ^ (1 << a.lowBits)
				if _, _, _, err := a.write(off, patternOf(off, j)); err != nil {
					return 0, err
				}
			}
		}
		if !calibrated {
			return 0, fmt.Errorf("attack: could not calibrate the inner refresh phase for bit %d", j)
		}
		// If the combs are locked — ψi divides ψo and every upcoming
		// outer step coincides with an inner fire — slip them apart with
		// writes to a different logical group: they advance the outer
		// schedule without ticking the probe's sub-region (groups never
		// share a sub-region under an XOR mapping).
		if calibrated && a.OuterInterval%a.InnerInterval == 0 {
			off := probe ^ (1 << a.lowBits)
			offContent := patternOf(off, j)
			for (a.OuterInterval-a.cnt)%a.InnerInterval == (a.InnerInterval-innerCnt%a.InnerInterval)%a.InnerInterval {
				if _, _, _, err := a.write(off, offContent); err != nil {
					return 0, err
				}
			}
		}
		votes0, votes1 := 0, 0
		deadline := 64 * uint64(a.VotesPerBit) * a.OuterInterval
		for w := uint64(0); w < deadline && votes0+votes1 < a.VotesPerBit; w++ {
			extra, stepped, k, err := a.write(probe, probeContent)
			if err != nil {
				return 0, err
			}
			innerCnt++
			innerFires := innerCnt >= a.InnerInterval
			if innerFires {
				innerCnt = 0
			}
			if !stepped {
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
			b := k >> j & 1
			same := 2 * (a.Timing.ReadNs + a.Timing.WriteNs(pcm.Zeros))
			sameHi := 2 * (a.Timing.ReadNs + a.Timing.WriteNs(pcm.Ones))
			mixed := 2*a.Timing.ReadNs + a.Timing.WriteNs(pcm.Zeros) + a.Timing.WriteNs(pcm.Ones)
			switch {
			case b == 0 && extra == same, b == 1 && extra == sameHi:
				votes0++ // partner matches k's bit: D_j = 0
			case extra == mixed:
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
	return d, nil
}

// floodUntilRoundEnd funnels every remaining write of the round into the
// tracked logical group, one inner refresh round per member so the inner
// SR pins each on a single physical line.
func (a *RTATwoLevelSRExact) floodUntilRoundEnd(group uint64) error {
	start := a.res.Writes
	defer func() { a.FloodWrites += a.res.Writes - start }()
	stint := a.n * a.InnerInterval
	for i := uint64(0); ; i++ {
		la := group<<a.lowBits | (i % a.n)
		// The shadow CRP only changes on outer steps, which batch to the
		// end of each outer epoch; check the round boundary there.
		for w := uint64(0); w < stint; {
			k := a.OuterInterval - a.cnt
			if rem := stint - w; k > rem {
				k = rem
			}
			if err := a.writeN(la, pcm.Ones, k); err != nil {
				return err
			}
			w += k
			if a.crp == a.Lines {
				return nil // round complete: re-detect before continuing
			}
		}
	}
}
