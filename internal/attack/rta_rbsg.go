package attack

import (
	"errors"
	"fmt"

	"securityrbsg/internal/pcm"
)

// RTARBSG is the Remapping Timing Attack against Region-Based Start-Gap
// (Section III-B of the paper), implemented as a real algorithm that sees
// only logical writes and their latencies.
//
// What the attacker knows (Kerckhoffs): the scheme and its parameters
// (N lines, R regions, interval ψ, device timing) and the boot state of
// the Start-Gap registers (Start=0, Gap=n for every region). What it does
// not know: the static randomizer, i.e. which logical addresses are
// physically adjacent.
//
// The attack maintains a *shadow* Start-Gap region for the target's
// region. It can do so exactly, without secrets, because gap movements are
// a pure function of the number of writes landing in the region, and the
// attacker controls that number: a full sweep over all N logical addresses
// puts exactly N/R writes into every region (the randomizer is a
// bijection), and hammer-phase writes all land in the target's region.
//
// Phases:
//
//  1. Alignment (paper Steps 1–3): write ALL-0 everywhere, then hammer the
//     chosen line Li with ALL-1 until a gap movement costs
//     read+SET (1125 ns) instead of read+RESET (250 ns) — that movement
//     moved Li, fixing Li's physical slot in the shadow. From here the
//     cyclic slot order reveals which *relative* neighbor every future
//     movement touches.
//  2. Sequence detection (Steps 4–6): for each address bit j, sweep a
//     pattern (ALL-0/ALL-1 keyed by bit j of the LA), then hammer Li and
//     classify each movement's latency to read bit j of every line in the
//     region — in particular of Li's physical predecessors
//     L(i−1), L(i−2), …, which no static randomizer can hide.
//  3. Wear-out: hammer whichever recovered logical address currently sits
//     on the pinned physical slot, following the rotation, so every
//     attacker write lands on the same physical line until it fails.
type RTARBSG struct {
	// Target is the memory under attack.
	Target Target
	// Lines, Regions, Interval mirror the RBSG configuration (public).
	Lines, Regions, Interval uint64
	// Timing is the public device timing.
	Timing pcm.Timing
	// Li is the logical address whose physical neighborhood is attacked.
	Li uint64
	// SeqLen is how many predecessor addresses to recover (the paper's
	// n = ceil(E / ((N/R)·ψ)); at least 1). 0 picks the region size - 1.
	SeqLen uint64
	// MaxWrites bounds the attack (0 = unbounded). Oracle, when non-nil,
	// stops the attack when it returns true (e.g. device failed).
	MaxWrites uint64
	Oracle    func() bool

	// Phases splits the writes by phase (diagnostics filled in by Run).
	Phases

	engine
	// --- shadow state ---
	n        uint64   // lines per region
	cnt      uint64   // region write counter mod ψ
	sGap     uint64   // shadow Gap register
	sStart   uint64   // shadow Start register
	rel      []int64  // slot -> relative offset k (line is L(i-k)), -1 unknown
	liSlot   uint64   // Li's slot at alignment (the pinned target slot)
	seqBits  []uint64 // recovered LA bits per offset (index 0 unused)
	seqKnown []uint64 // bitmask of recovered bit positions per offset
}

const relUnknown = int64(-1)

// Run executes the full attack and reports the result. Sequence recovery
// diagnostics remain available on the receiver afterwards.
func (a *RTARBSG) Run() (Result, error) {
	if err := a.start(); err != nil {
		return Result{}, err
	}
	err := a.align()
	if err == nil {
		a.AlignWrites = a.res.Writes
		err = a.detectSequence()
	}
	if err == nil {
		a.DetectWrites = a.res.Writes - a.AlignWrites
		err = a.wearOut()
		a.WearWrites = a.res.Writes - a.AlignWrites - a.DetectWrites
	}
	return a.result(err)
}

// start checks the configuration and boots the engine and the shadow
// region (Start=0, Gap=n).
func (a *RTARBSG) start() error {
	if err := checkGeometry(a.Lines, a.Regions, a.Interval); err != nil {
		return err
	}
	a.engine = newEngine(a.Target, a.Lines, a.Timing, a.MaxWrites, a.Oracle)
	a.Phases = Phases{}
	a.n = a.Lines / a.Regions
	if a.SeqLen == 0 || a.SeqLen > a.n-1 {
		a.SeqLen = a.n - 1
	}
	a.cnt = 0
	a.sGap = a.n
	a.sStart = 0
	a.rel = make([]int64, a.n+1)
	a.seqBits = make([]uint64, a.SeqLen+1)
	a.seqKnown = make([]uint64, a.SeqLen+1)
	for i := range a.rel {
		a.rel[i] = relUnknown
	}
	return nil
}

// advance moves the shadow k region writes on, where at most the k-th
// can reach the interval (k ≤ Interval − cnt). It returns whether a
// movement fired and which slot it vacated.
func (a *RTARBSG) advance(k uint64) (moved bool, srcSlot uint64) {
	a.cnt += k
	if a.cnt < a.Interval {
		return false, 0
	}
	if a.cnt > a.Interval {
		panic(fmt.Errorf("attack: %d writes crossed a shadow movement", k))
	}
	a.cnt = 0
	return true, a.shadowMove()
}

// hammer issues k writes of c to la through the engine (1 ≤ k ≤ the
// writes left until the next shadow movement, so only the k-th write
// can carry a movement) and advances the shadow by the writes issued.
// It returns the last write's extra latency and the movement it fired,
// if any.
func (a *RTARBSG) hammer(la uint64, c pcm.Content, k uint64) (extra uint64, moved bool, srcSlot uint64, err error) {
	issued, extra, err := a.writeRun(la, c, k)
	moved, srcSlot = a.advance(issued)
	return extra, moved, srcSlot, err
}

// shadowMove mirrors startgap.Region.MoveGap on the shadow registers and
// the relative-offset map.
func (a *RTARBSG) shadowMove() (srcSlot uint64) {
	var src, dst uint64
	if a.sGap == 0 {
		src, dst = a.n, 0
		a.sGap = a.n
		a.sStart++
		if a.sStart == a.n {
			a.sStart = 0
		}
	} else {
		src, dst = a.sGap-1, a.sGap
		a.sGap--
	}
	a.rel[dst] = a.rel[src]
	a.rel[src] = relUnknown
	return src
}

// pass writes a full sweep over the logical space — content ALL-0, or
// keyed by address bit when bit >= 0 — and advances the shadow by
// exactly N/R region writes (a bijective randomizer routes exactly that
// many sweep writes into every region). Movement latencies during the
// sweep are not attributable to a region, so no bits are read.
func (a *RTARBSG) pass(bit int) error {
	if _, err := a.sweep(bit); err != nil {
		return err
	}
	for i := uint64(0); i < a.n; i++ {
		a.advance(1)
	}
	return nil
}

// align is phase 1: pin down Li's physical slot.
func (a *RTARBSG) align() error {
	if err := a.pass(-1); err != nil { // Step 1: ALL-0 everywhere
		return err
	}
	// Steps 2–3: hammer Li with ALL-1 until a movement costs read+SET.
	setMove := a.timing.ReadNs + a.timing.SetNs
	deadline := 2 * (a.n + 1) * a.Interval // two full rotations must see Li
	for i := uint64(0); i < deadline; {
		// One inter-movement epoch per iteration: only the k-th write can
		// fire a movement, so the whole epoch batches into one hammer.
		k := min(a.Interval-a.cnt, deadline-i)
		extra, moved, src, err := a.hammer(a.Li, pcm.Ones, k)
		if err != nil {
			return err
		}
		i += k
		if !moved {
			continue
		}
		if extra < setMove {
			continue // an ALL-0 neighbor moved: read+RESET only
		}
		// That movement moved Li: it went from slot src into the old gap.
		a.liSlot = src + 1
		if src == a.n {
			a.liSlot = 0
		}
		a.initRel()
		return nil
	}
	return errors.New("attack: alignment failed — no SET-latency movement observed")
}

// initRel seeds the slot→relative-offset map: Li sits at liSlot, and the
// region's slots hold lines in cyclic intermediate-address order with the
// gap slot interleaved, so walking downward from Li's slot (skipping the
// gap) enumerates L(i-1), L(i-2), … .
func (a *RTARBSG) initRel() {
	for i := range a.rel {
		a.rel[i] = relUnknown
	}
	a.rel[a.liSlot] = 0
	offset := int64(1)
	s := a.liSlot
	for assigned := uint64(1); assigned < a.n; {
		if s == 0 {
			s = a.n
		} else {
			s--
		}
		if s == a.sGap {
			continue
		}
		a.rel[s] = offset
		offset++
		assigned++
	}
}

// detectSequence is phase 2: recover every address bit of the SeqLen
// predecessors of Li.
func (a *RTARBSG) detectSequence() error {
	bits := addressBits(a.Lines)
	setMove := a.timing.ReadNs + a.timing.SetNs
	for j := uint(0); j < bits; j++ {
		if err := a.pass(int(j)); err != nil { // Step 4: pattern keyed by bit j
			return err
		}
		// Step 5: hammer Li (with Li's own pattern so contents stay
		// consistent) and classify every movement in the region. One full
		// rotation reads bit j of every line.
		liContent := patternOf(a.Li, j)
		need := a.SeqLen
		seen := uint64(0)
		deadline := 2 * (a.n + 1) * a.Interval
		for w := uint64(0); w < deadline && seen < need; {
			k := min(a.Interval-a.cnt, deadline-w)
			extra, moved, src, err := a.hammer(a.Li, liContent, k)
			if err != nil {
				return err
			}
			w += k
			if !moved {
				continue
			}
			// The line that moved was at slot src; after shadowMove its
			// offset tag traveled to the destination slot. Recover it from
			// the destination (src is now the gap).
			dst := src + 1
			if src == a.n {
				dst = 0
			}
			off := a.rel[dst]
			if off <= 0 || uint64(off) > a.SeqLen {
				continue // Li itself, an unknown slot, or beyond the needed sequence
			}
			if a.seqKnown[off]>>j&1 == 1 {
				continue // already read this bit on a previous rotation
			}
			bit := uint64(0)
			if extra >= setMove {
				bit = 1
			}
			a.seqBits[off] |= bit << j
			a.seqKnown[off] |= 1 << j
			seen++
		}
		if seen < need {
			return fmt.Errorf("attack: bit %d: observed only %d/%d sequence lines", j, seen, need)
		}
	}
	return nil
}

// Sequence returns the recovered predecessor logical addresses: element k
// (0-based) is L(i-k-1), the line physically k+1 slots before Li. Valid
// after Run.
func (a *RTARBSG) Sequence() []uint64 {
	out := make([]uint64, 0, a.SeqLen)
	for k := uint64(1); k <= a.SeqLen; k++ {
		out = append(out, a.seqBits[k])
	}
	return out
}

// wearOut is phase 3: hammer whichever recovered address currently
// occupies Li's pinned slot, tracking the rotation, until the oracle fires
// or the budget or recovered sequence is exhausted.
func (a *RTARBSG) wearOut() error {
	// Pin the physical slot Li occupies *now* (detection rotations have
	// moved it since alignment), so the wear phase starts at offset 0 and
	// consumes the recovered sequence from the top.
	target := a.liSlot
	for s, k := range a.rel {
		if k == 0 {
			target = uint64(s)
			break
		}
	}
	for {
		k := a.rel[target]
		if k == relUnknown {
			// The slot is momentarily the gap; the next mover is the line
			// one slot below.
			below := target
			if below == 0 {
				below = a.n
			} else {
				below--
			}
			k = a.rel[below]
		}
		if k == relUnknown {
			return errors.New("attack: lost track of the pinned slot")
		}
		var la uint64
		switch {
		case k == 0:
			la = a.Li
		case uint64(k) <= a.SeqLen:
			la = a.seqBits[k]
		default:
			return fmt.Errorf("attack: recovered sequence exhausted (need offset %d, have %d)", k, a.SeqLen)
		}
		// la is frozen until the next shadow movement (rel only changes at
		// movements), so the rest of the epoch batches into one hammer.
		if _, _, _, err := a.hammer(la, pcm.Ones, a.Interval-a.cnt); err != nil {
			return err
		}
	}
}
