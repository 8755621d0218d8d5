package attack

import (
	"errors"
	"fmt"

	"securityrbsg/internal/pcm"
)

// RTASR is the Remapping Timing Attack against one-level Security Refresh
// (Section III-D of the paper), implemented exactly: the attacker sees
// only logical writes and latencies.
//
// The attacker knows N, the refresh interval ψ, the device timing and the
// boot state (a fresh round begins at the first step). It maintains a
// shadow CRP — exact, because every write is the attacker's own and a
// refresh step fires every ψ of them — and recovers the round's key
// difference D = keyc XOR keyp one bit per pattern sweep:
//
//   - a refresh step swaps logical line `crp` with its pair `crp XOR D`;
//   - after sweeping ALL-0/ALL-1 keyed by address bit j, the swap latency
//     reveals whether the two swapped lines' bit-j values agree
//     (500 / 2250 ns — both ALL-0 / both ALL-1) or differ (1375 ns),
//     and [crp]_j XOR [pair]_j = D_j.
//
// Knowing D, the attacker follows the physical line under a chosen
// logical address across swaps within the round, and re-detects D each
// round, so nearly every attack write lands on the same physical line.
type RTASR struct {
	// Target is the memory under attack.
	Target Target
	// Lines is the SR domain size N; Interval is ψ (public).
	Lines, Interval uint64
	// Timing is the public device timing.
	Timing pcm.Timing
	// Li is the logical address whose physical line is worn out. Must be
	// nonzero (address 0 is the attacker's probe line).
	Li uint64
	// MaxWrites bounds the attack (0 = unbounded); Oracle stops it when
	// true (device failed).
	MaxWrites uint64
	Oracle    func() bool

	// Phases splits the writes by phase (diagnostics filled in by Run).
	Phases
	// RoundsSeen counts the refresh rounds begun while the attack ran.
	RoundsSeen uint64
	// RecoveredDs records every recovered per-round key difference, for
	// tests to check against ground truth.
	RecoveredDs []uint64

	srShadow
	d uint64 // keyc XOR keyp of the current round
}

// Run executes the attack.
func (a *RTASR) Run() (Result, error) {
	if err := a.start(); err != nil {
		return Result{}, err
	}
	err := a.align()
	if err == nil {
		a.AlignWrites = a.res.Writes
		err = a.wearLoop()
	}
	a.RoundsSeen = a.sched.rounds
	return a.result(err)
}

// start checks the configuration and boots the engine and the step
// schedule.
func (a *RTASR) start() error {
	if err := checkGeometry(a.Lines, 1, a.Interval); err != nil {
		return err
	}
	if a.Li == 0 || a.Li >= a.Lines {
		return fmt.Errorf("attack: Li must be in [1, N), got %d", a.Li)
	}
	a.srShadow = newSRShadow(newEngine(a.Target, a.Lines, a.Timing, a.MaxWrites, a.Oracle), a.Lines, a.Interval)
	a.Phases, a.RoundsSeen, a.RecoveredDs = Phases{}, 0, nil
	return nil
}

// srSchedule is the attacker's shadow of a Security Refresh level's step
// schedule, exact from its own write count alone: a refresh step every
// interval writes processes the address under the CRP, and the CRP
// wrapping past the last address starts a new round (the keys rotate
// just before it processes address 0).
type srSchedule struct {
	lines, interval uint64
	cnt             uint64 // writes since the last step
	crp             uint64 // next address to process; lines = round complete
	rounds          uint64 // rounds begun since boot
}

// srStep is a refresh step as the schedule predicts it.
type srStep struct {
	fired    bool   // the run's last write fired a step
	la       uint64 // the address the step processed (the CRP before it)
	newRound bool   // the step began a new round
}

// left returns the writes until the next step: the longest run whose
// only possible step is its last write.
func (s *srSchedule) left() uint64 { return s.interval - s.cnt }

// advance moves the schedule k writes on, where at most the k-th can
// fire a step (k ≤ left()).
func (s *srSchedule) advance(k uint64) (st srStep) {
	s.cnt += k
	if s.cnt < s.interval {
		return st
	}
	if s.cnt > s.interval {
		panic(fmt.Errorf("attack: %d writes crossed a refresh step", k))
	}
	s.cnt = 0
	if s.crp == s.lines {
		s.crp = 0
		s.rounds++
		st.newRound = true
	}
	st.fired, st.la = true, s.crp
	s.crp++
	return st
}

// srShadow is the engine with a Security Refresh step schedule as its
// shadow: RTASR's one level, or RTATwoLevelSRExact's outer level.
type srShadow struct {
	engine
	sched srSchedule
}

func newSRShadow(e engine, lines, interval uint64) srShadow {
	// Boot state: the previous round is complete, so the first step
	// re-keys.
	return srShadow{engine: e, sched: srSchedule{lines: lines, interval: interval, crp: lines}}
}

// step issues k writes of c to la (1 ≤ k ≤ sched.left()) and advances
// the schedule by the writes issued. It returns the last write's extra
// latency and the step the k-th write fired, if any.
func (s *srShadow) step(la uint64, c pcm.Content, k uint64) (extra uint64, st srStep, err error) {
	issued, extra, err := s.writeRun(la, c, k)
	return extra, s.sched.advance(issued), err
}

// swapKind is what a refresh step's extra latency says about the lines
// it swapped. A swap reads both lines and writes each into the other's
// place, so after a pattern sweep its cost names their contents:
// 2·read + 2·RESET (both ALL-0), 2·read + 2·SET (both ALL-1) or
// 2·read + SET + RESET (they differ). Any other latency — no swap, or
// another movement on the same write — is swapNone.
type swapKind int

const (
	swapNone swapKind = iota
	swapZeros
	swapOnes
	swapMixed
)

func classifySwap(t pcm.Timing, extra uint64) swapKind {
	switch extra {
	case 2*t.ReadNs + t.SetNs + t.ResetNs:
		return swapMixed
	case 2 * (t.ReadNs + t.ResetNs):
		return swapZeros
	case 2 * (t.ReadNs + t.SetNs):
		return swapOnes
	}
	return swapNone
}

// align is Steps 1–2: zero everything, then hammer address 0 with ALL-1
// until the step that swaps it (read×2 + SET + RESET) is observed, which
// pins the shadow CRP to 1 in a fresh round.
func (a *RTASR) align() error {
	n, err := a.sweep(-1)
	for ; n > 0; n-- {
		a.sched.advance(1)
	}
	if err != nil {
		return err
	}
	swapWithOnes := 2*a.timing.ReadNs + a.timing.SetNs + a.timing.ResetNs
	deadline := 3 * a.Lines * a.Interval
	for i := uint64(0); i < deadline; {
		// One inter-step epoch per iteration: only the k-th write can
		// fire a refresh step, so the epoch batches into one step call.
		k := min(a.sched.left(), deadline-i)
		extra, st, err := a.step(0, pcm.Ones, k)
		if err != nil {
			return err
		}
		i += k
		if st.fired && st.la == 0 && extra >= swapWithOnes {
			// Address 0 just swapped with its (ALL-0) pair; the shadow
			// CRP is confirmed at 1. Reset its content for detection.
			_, _, err := a.step(0, pcm.Zeros, 1)
			return err
		}
	}
	return errors.New("attack: SR alignment failed — never observed address 0's swap")
}

// errRoundEnded reports that the round rolled over mid-detection; the
// caller restarts detectD in the new round.
var errRoundEnded = errors.New("round ended during detection")

// detect runs detectD until one run completes within a round.
func (a *RTASR) detect() error {
	for {
		if err := a.detectD(); !errors.Is(err, errRoundEnded) {
			return err
		}
	}
}

// detectD recovers D = keyc XOR keyp for the current round, one bit per
// pattern sweep (Steps 3–5). It must finish before the round ends.
func (a *RTASR) detectD() error {
	bits := addressBits(a.Lines)
	start := a.res.Writes
	var d uint64
	for j := uint(0); j < bits; j++ {
		// Step 3: pattern keyed by logical address bit j.
		for la := uint64(0); la < a.Lines; la++ {
			_, st, err := a.step(la, patternOf(la, j), 1)
			if err != nil {
				return err
			}
			if st.newRound {
				return errRoundEnded
			}
		}
		// Step 4: hammer address 0 (pattern ALL-0) until a step swaps.
		// classified only changes on stepped writes, which batch to the
		// end of each inter-step epoch.
		for classified := false; !classified; {
			extra, st, err := a.step(0, pcm.Zeros, a.sched.left())
			if err != nil {
				return err
			}
			if st.newRound {
				return errRoundEnded
			}
			if !st.fired || extra == 0 {
				continue // no step, or the step's pair was already done
			}
			switch classifySwap(a.timing, extra) {
			case swapMixed:
				d |= 1 << j
				classified = true
			case swapZeros, swapOnes:
				classified = true
			}
			// Any other latency (shouldn't happen in one-level SR): keep
			// waiting for a clean observation.
		}
	}
	a.d = d
	a.RecoveredDs = append(a.RecoveredDs, d)
	a.DetectWrites += a.res.Writes - start
	return nil
}

// wearLoop is the wear-out phase: track the logical address occupying the
// pinned physical line through swaps and rounds, re-detecting D each round.
func (a *RTASR) wearLoop() error {
	// Recover D for the current round first.
	if err := a.detect(); err != nil {
		return err
	}
	// Pin the physical line currently under Li.
	occ := a.Li
	for {
		pair := occ ^ a.d
		// If the step covering {occ, pair} has not run yet this round,
		// hammer occ until it does; the same physical line is then under
		// the pair (the swap moves the pair's data onto it).
		swapAt := occ
		if pair < occ {
			swapAt = pair
		}
		ended := false
		if pair != occ {
			// Hammer occ until the swap step passes (it may already have
			// passed if detection consumed steps beyond it). The shadow CRP
			// only changes on stepped writes, so each epoch batches whole.
			for a.sched.crp <= swapAt {
				_, st, err := a.step(occ, pcm.Ones, a.sched.left())
				if err != nil {
					return err
				}
				if st.newRound {
					ended = true
					break
				}
			}
			if !ended {
				occ = pair
			}
		}
		// Keep hammering the occupant until the round ends; each line is
		// swapped at most once per round, so it stays on the pinned
		// physical line.
		for !ended {
			_, st, err := a.step(occ, pcm.Ones, a.sched.left())
			if err != nil {
				return err
			}
			ended = st.newRound
		}
		// Round rolled over: recover the fresh D, then continue on the
		// same physical line (its occupant is unchanged at round start).
		a.WearWrites = a.res.Writes - a.AlignWrites - a.DetectWrites
		if err := a.detect(); err != nil {
			return err
		}
	}
}
