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

	// shadow state
	crp        uint64 // shadow CRP in [0, N]; N+... wraps handled
	cnt        uint64 // writes since last step
	roundKnown bool   // D recovered for the current round
	d          uint64 // keyc XOR keyp of the current round
	ev         lastEvent

	res Result
	// Diagnostics
	AlignWrites  uint64
	DetectWrites uint64
	WearWrites   uint64
	RoundsSeen   uint64
	// RecoveredDs records every recovered per-round key difference, for
	// tests to check against ground truth.
	RecoveredDs []uint64
}

// Run executes the attack.
func (a *RTASR) Run() (Result, error) {
	if a.Lines == 0 || a.Lines&(a.Lines-1) != 0 || a.Interval == 0 {
		return Result{}, fmt.Errorf("attack: bad SR parameters N=%d ψ=%d", a.Lines, a.Interval)
	}
	if a.Timing == (pcm.Timing{}) {
		a.Timing = pcm.DefaultTiming
	}
	if a.Li == 0 || a.Li >= a.Lines {
		return Result{}, fmt.Errorf("attack: Li must be in [1, N), got %d", a.Li)
	}
	a.crp = a.Lines // boot state: previous round complete

	if err := a.align(); err != nil {
		return a.res, a.finish(err)
	}
	a.AlignWrites = a.res.Writes
	err := a.wearLoop()
	return a.res, a.finish(err)
}

func (a *RTASR) finish(err error) error {
	if errors.Is(err, errStopped) {
		return nil
	}
	return err
}

func (a *RTASR) write(la uint64, c pcm.Content) (extraNs uint64, err error) {
	if a.Oracle != nil && a.Oracle() {
		a.res.Failed = true
		return 0, errStopped
	}
	if a.MaxWrites > 0 && a.res.Writes >= a.MaxWrites {
		return 0, errStopped
	}
	ns := a.Target.Write(la, c)
	a.res.Writes++
	a.res.AttackNs += ns
	return ns - a.Timing.WriteNs(c), nil
}

// tick advances the shadow by one write; it returns whether a refresh step
// fired and the logical address it processed (the CRP value before the
// advance). newRound reports that the step began a fresh round (keys
// rotated just before processing address 0).
func (a *RTASR) tick() (stepped bool, la uint64, newRound bool) {
	return a.tickN(1)
}

// tickN advances the shadow by k writes at once, where at most the k-th
// can reach the interval (k ≤ Interval − cnt).
func (a *RTASR) tickN(k uint64) (stepped bool, la uint64, newRound bool) {
	a.cnt += k
	if a.cnt < a.Interval {
		return false, 0, false
	}
	if a.cnt > a.Interval {
		panic(fmt.Errorf("attack: tickN(%d) crossed a refresh step", k))
	}
	a.cnt = 0
	if a.crp == a.Lines {
		a.crp = 0
		newRound = true
		a.roundKnown = false
		a.RoundsSeen++
	}
	la = a.crp
	a.crp++
	return true, la, newRound
}

// writeN issues k consecutive writes of c to la (1 ≤ k ≤ Interval − cnt,
// so only the k-th write can carry a refresh step) and advances the
// shadow in lock-step, returning the last write's extra latency and the
// step it fired, if any. Batch-boundary Oracle/budget semantics are the
// same as RTARBSG.writeN's (exact for the device-failure oracle).
func (a *RTASR) writeN(la uint64, c pcm.Content, k uint64) (extra uint64, stepped bool, stepLA uint64, newRound bool, err error) {
	bt, batched := a.Target.(BatchTarget)
	if !batched || k < 2 {
		for j := uint64(0); j < k; j++ {
			e, werr := a.write(la, c)
			if werr != nil {
				return 0, false, 0, false, werr
			}
			extra = e
			if s, sla, nr := a.tick(); s {
				stepped, stepLA, newRound = true, sla, nr
			}
		}
		return extra, stepped, stepLA, newRound, nil
	}
	if a.Oracle != nil && a.Oracle() {
		a.res.Failed = true
		return 0, false, 0, false, errStopped
	}
	want := k
	if a.MaxWrites > 0 {
		if a.res.Writes >= a.MaxWrites {
			return 0, false, 0, false, errStopped
		}
		if rem := a.MaxWrites - a.res.Writes; want > rem {
			want = rem
		}
	}
	var issued uint64
	for issued < want {
		got, ns := bt.WriteRun(la, c, want-issued, a.Oracle != nil, a.ev.sink())
		issued += got
		a.res.Writes += got
		a.res.AttackNs += ns
		extra = a.ev.lastExtra(got, a.Timing.WriteNs(c))
		if issued == want {
			break
		}
		if a.Oracle() {
			a.res.Failed = true
			err = errStopped
			break
		}
	}
	stepped, stepLA, newRound = a.tickN(issued)
	if err == nil && issued < k {
		err = errStopped // budget exhausted, like the naive precheck
	}
	return extra, stepped, stepLA, newRound, err
}

// align is Steps 1–2: zero everything, then hammer address 0 with ALL-1
// until the step that swaps it (read×2 + SET + RESET) is observed, which
// pins the shadow CRP to 1 in a fresh round.
func (a *RTASR) align() error {
	for la := uint64(0); la < a.Lines; la++ {
		if _, err := a.write(la, pcm.Zeros); err != nil {
			return err
		}
		a.tick()
	}
	swapWithOnes := 2*a.Timing.ReadNs + a.Timing.SetNs + a.Timing.ResetNs
	deadline := 3 * a.Lines * a.Interval
	for i := uint64(0); i < deadline; {
		// One inter-step epoch per iteration: only the k-th write can
		// fire a refresh step, so the epoch batches into one writeN.
		k := a.Interval - a.cnt
		if k > deadline-i {
			k = deadline - i
		}
		extra, stepped, la, _, err := a.writeN(0, pcm.Ones, k)
		if err != nil {
			return err
		}
		i += k
		if !stepped {
			continue
		}
		if la == 0 && extra >= swapWithOnes {
			// Address 0 just swapped with its (ALL-0) pair; the shadow
			// CRP is confirmed at 1. Reset its content for detection.
			if _, err := a.write(0, pcm.Zeros); err != nil {
				return err
			}
			a.tick()
			return nil
		}
	}
	return errors.New("attack: SR alignment failed — never observed address 0's swap")
}

// detectD recovers D = keyc XOR keyp for the current round, one bit per
// pattern sweep (Steps 3–5). It must finish before the round ends; the
// caller restarts it on a round boundary. Returns errRoundEnded if the
// round rolled over mid-detection.
var errRoundEnded = errors.New("round ended during detection")

func (a *RTASR) detectD() error {
	bits := addressBits(a.Lines)
	start := a.res.Writes
	var d uint64
	for j := uint(0); j < bits; j++ {
		// Step 3: pattern keyed by logical address bit j.
		for la := uint64(0); la < a.Lines; la++ {
			if _, err := a.write(la, patternOf(la, j)); err != nil {
				return err
			}
			if _, _, nr := a.tick(); nr {
				return errRoundEnded
			}
		}
		// Step 4: hammer address 0 (pattern ALL-0) until a step swaps.
		// classified only changes on stepped writes, which batch to the
		// end of each inter-step epoch.
		classified := false
		for !classified {
			extra, stepped, _, nr, err := a.writeN(0, pcm.Zeros, a.Interval-a.cnt)
			if err != nil {
				return err
			}
			if nr {
				return errRoundEnded
			}
			if !stepped || extra == 0 {
				continue // no step, or the step's pair was already done
			}
			mixedSwap := 2*a.Timing.ReadNs + a.Timing.SetNs + a.Timing.ResetNs
			sameSwapLo := 2 * (a.Timing.ReadNs + a.Timing.ResetNs)
			sameSwapHi := 2 * (a.Timing.ReadNs + a.Timing.SetNs)
			switch extra {
			case mixedSwap:
				d |= 1 << j
				classified = true
			case sameSwapLo, sameSwapHi:
				classified = true
			default:
				// Overlapping latencies (shouldn't happen in one-level
				// SR); keep waiting for a clean observation.
			}
		}
	}
	a.d = d
	a.roundKnown = true
	a.RecoveredDs = append(a.RecoveredDs, d)
	a.DetectWrites += a.res.Writes - start
	return nil
}

// wearLoop is the wear-out phase: track the logical address occupying the
// pinned physical line through swaps and rounds, re-detecting D each round.
func (a *RTASR) wearLoop() error {
	// Recover D for the current round first.
	for {
		err := a.detectD()
		if err == nil {
			break
		}
		if !errors.Is(err, errRoundEnded) {
			return err
		}
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
			for a.crp <= swapAt {
				_, _, _, nr, err := a.writeN(occ, pcm.Ones, a.Interval-a.cnt)
				if err != nil {
					return err
				}
				if nr {
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
			_, _, _, nr, err := a.writeN(occ, pcm.Ones, a.Interval-a.cnt)
			if err != nil {
				return err
			}
			ended = nr
		}
		// Round rolled over: recover the fresh D, then continue on the
		// same physical line (its occupant is unchanged at round start).
		a.WearWrites = a.res.Writes - a.AlignWrites - a.DetectWrites
		for {
			err := a.detectD()
			if err == nil {
				break
			}
			if !errors.Is(err, errRoundEnded) {
				return err
			}
		}
	}
}
