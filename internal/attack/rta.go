package attack

import (
	"errors"
	"fmt"

	"securityrbsg/internal/pcm"
)

// Phases splits a timing attack's writes by phase. Run fills it in.
type Phases struct {
	// AlignWrites pinned the shadow model to the victim (RTARBSG and
	// RTASR; the two-level attack needs no alignment).
	AlignWrites uint64
	// DetectWrites recovered the mapping secrets.
	DetectWrites uint64
	// WearWrites hammered the pinned line or sub-region.
	WearWrites uint64
}

// errStopped aborts a timing attack's phases when the Oracle or the
// budget fires; Run reports it as a clean stop.
var errStopped = errors.New("attack stopped")

// engine is the write path the three timing attacks share. It issues
// the attacker's writes — one at a time, as a batched run over a
// BatchTarget or as a full sweep over a SweepTarget — checks the Oracle
// and the MaxWrites budget before them, and books every issued write in
// the Result. Each attack keeps only its shadow model, which it advances
// by the writes the engine reports issued.
//
// Batches and sweeps move the checks the write-by-write loop makes
// before every write to their boundaries. That is exact for the
// device-failure oracle, the only one the repo's experiments use:
// WriteRun's stopOnFail truncates a batch right after the bank's first
// failure, the write after which the loop's next check would have
// stopped; the budget clamp truncates at the write the loop's budget
// check would; and a SweepTarget declines a pass during which a line
// could fail. Other oracles are consulted once per batch or sweep.
type engine struct {
	t      Target
	bt     BatchTarget // t's batch capability, nil if it has none
	st     SweepTarget // t's sweep capability, nil if it has none
	lines  uint64
	timing pcm.Timing
	max    uint64
	oracle func() bool
	res    Result
	ev     lastEvent
}

// newEngine arms an engine over t for one run; a zero timing means
// pcm.DefaultTiming.
func newEngine(t Target, lines uint64, timing pcm.Timing, maxWrites uint64, oracle func() bool) engine {
	if timing == (pcm.Timing{}) {
		timing = pcm.DefaultTiming
	}
	e := engine{t: t, lines: lines, timing: timing, max: maxWrites, oracle: oracle}
	e.bt, _ = t.(BatchTarget)
	e.st, _ = t.(SweepTarget)
	return e
}

// checkGeometry is the parameter check the timing attacks share: lines
// a power of two split evenly into regions, and every interval positive.
func checkGeometry(lines, regions uint64, intervals ...uint64) error {
	if lines == 0 || lines&(lines-1) != 0 || regions == 0 || lines%regions != 0 {
		return fmt.Errorf("attack: bad geometry: %d lines (a power of two) in %d regions", lines, regions)
	}
	for _, iv := range intervals {
		if iv == 0 {
			return errors.New("attack: remapping intervals must be positive")
		}
	}
	return nil
}

// check is the test before a write: the Oracle, which marks the run
// failed, then the budget.
func (e *engine) check() error {
	if e.oracle != nil && e.oracle() {
		e.res.Failed = true
		return errStopped
	}
	if e.max > 0 && e.res.Writes >= e.max {
		return errStopped
	}
	return nil
}

// write issues one attacker write and returns its latency beyond the
// demand write itself: the remapping side channel.
func (e *engine) write(la uint64, c pcm.Content) (extra uint64, err error) {
	if err := e.check(); err != nil {
		return 0, err
	}
	ns := e.t.Write(la, c)
	e.res.Writes++
	e.res.AttackNs += ns
	return ns - e.timing.WriteNs(c), nil
}

// writeRun issues k writes of c to la, where 1 ≤ k ≤ the writes left
// until the shadow's next movement, so only the k-th write can carry
// one. It returns the writes issued (the shadow advances by that many,
// error or not) and the last one's extra latency. Over a BatchTarget the
// run goes out as one batch.
func (e *engine) writeRun(la uint64, c pcm.Content, k uint64) (issued, extra uint64, err error) {
	if e.bt == nil || k < 2 {
		for ; issued < k; issued++ {
			if extra, err = e.write(la, c); err != nil {
				return issued, 0, err
			}
		}
		return issued, extra, nil
	}
	if err := e.check(); err != nil {
		return 0, 0, err
	}
	want := k
	if e.max > 0 && e.max-e.res.Writes < want {
		want = e.max - e.res.Writes
	}
	for issued < want {
		got, ns := e.bt.WriteRun(la, c, want-issued, e.oracle != nil, e.ev.sink())
		issued += got
		e.res.Writes += got
		e.res.AttackNs += ns
		extra = e.ev.lastExtra(got, e.timing.WriteNs(c))
		if issued == want {
			break
		}
		// stopOnFail truncated the run at the bank's first failure; the
		// write-by-write loop's next check would now observe it.
		if e.oracle() {
			e.res.Failed = true
			return issued, extra, errStopped
		}
		// The oracle does not consider the failure fatal: resume the
		// batch (a bank first-fails at most once, so stopOnFail cannot
		// truncate again).
	}
	if issued < k {
		return issued, extra, errStopped // budget exhausted, as the per-write check would
	}
	return issued, extra, nil
}

// sweep writes one pass over the logical space: ALL-0 when bit < 0,
// else each address's patternOf for address bit bit. A SweepTarget runs
// the pass at once when the budget covers all of it; otherwise, or when
// the target declines, the pass goes out write by write. It returns the
// writes issued.
func (e *engine) sweep(bit int) (issued uint64, err error) {
	if e.st != nil && (e.max == 0 || e.res.Writes+e.lines <= e.max) {
		if err := e.check(); err != nil {
			return 0, err
		}
		if w, ns, ok := e.st.Sweep(bit); ok {
			e.res.Writes += w
			e.res.AttackNs += ns
			return w, nil
		}
	}
	for la := uint64(0); la < e.lines; la++ {
		c := pcm.Zeros
		if bit >= 0 {
			c = patternOf(la, uint(bit))
		}
		if _, err := e.write(la, c); err != nil {
			return la, err
		}
	}
	return e.lines, nil
}

// result ends a run: a stop by the Oracle or the budget is no error.
func (e *engine) result(err error) (Result, error) {
	if errors.Is(err, errStopped) {
		err = nil
	}
	return e.res, err
}

// lastEvent is the onEvent sink the engine hands to
// BatchTarget.WriteRun. It needs only the batch's final anomaly — the
// write-by-write loop reads the LAST write's extra latency, not a
// mid-run one (against schemes whose real movements the attack's shadow
// mispredicts, those differ) — so it keeps just the latest event. It
// binds its callback once: a closure built per batch escapes through
// the interface and costs heap allocations every epoch.
type lastEvent struct {
	i, ns uint64
	seen  bool
	fn    func(i, ns uint64) bool
}

// sink clears the record for a new batch and returns the bound callback.
func (e *lastEvent) sink() func(i, ns uint64) bool {
	e.seen = false
	if e.fn == nil {
		e.fn = e.note
	}
	return e.fn
}

func (e *lastEvent) note(i, ns uint64) bool {
	e.i, e.ns, e.seen = i, ns, true
	return true
}

// lastExtra returns the extra latency over base of a batch's final write
// (got writes issued): the recorded anomaly's if it landed on that write,
// else 0.
func (e *lastEvent) lastExtra(got, base uint64) uint64 {
	if e.seen && e.i == got-1 {
		return e.ns - base
	}
	return 0
}

// patternOf is the sweep content of la for address bit j: ALL-1 where
// the bit is 1, ALL-0 where it is 0.
func patternOf(la uint64, j uint) pcm.Content {
	if la>>j&1 == 1 {
		return pcm.Ones
	}
	return pcm.Zeros
}

// addressBits returns log2(n) for a power-of-two n.
func addressBits(n uint64) uint {
	b := uint(0)
	for v := n; v > 1; v >>= 1 {
		b++
	}
	return b
}
