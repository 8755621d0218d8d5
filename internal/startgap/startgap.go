// Package startgap implements the Start-Gap wear-leveling algorithm of
// Qureshi et al. (MICRO'09) for a single region: n logical lines stored in
// n+1 physical slots, with a Start register counting completed rotation
// rounds and a Gap register pointing at the empty slot. Every interval
// writes the gap moves one slot, so after a full round every line has
// shifted by one physical slot — wear from a pinned logical address is
// spread sequentially across the whole region.
//
// The region is deliberately unaware of the bank: movements go through a
// wear.Mover with a configurable base offset, so regions can be tiled into
// a larger physical space by RBSG and Security RBSG.
package startgap

import (
	"fmt"

	"securityrbsg/internal/wear"
)

// Region is one Start-Gap wear-leveling domain. Physical slot indices are
// local to the region: [0, n] where slot layout starts at Base in the
// owning bank.
type Region struct {
	n        uint64 // logical lines
	interval uint64 // writes between gap movements (ψ)
	base     uint64 // physical offset of slot 0 in the bank

	start uint64 // completed-rounds register, in [0, n)
	gap   uint64 // empty slot, in [0, n]

	writeCount uint64 // writes since the last gap movement
	movements  uint64 // total gap movements performed
	rounds     uint64 // completed rounds
}

// New creates a region of n logical lines (n >= 1) whose n+1 physical
// slots begin at physical address base, moving the gap every interval
// writes (interval >= 1).
func New(n, interval, base uint64) (*Region, error) {
	if n == 0 {
		return nil, fmt.Errorf("startgap: region needs at least one line")
	}
	if interval == 0 {
		return nil, fmt.Errorf("startgap: interval must be at least 1")
	}
	return &Region{n: n, interval: interval, base: base, gap: n}, nil
}

// MustNew is New that panics on error.
func MustNew(n, interval, base uint64) *Region {
	r, err := New(n, interval, base)
	if err != nil {
		panic(err)
	}
	return r
}

// Lines returns the number of logical lines n.
func (r *Region) Lines() uint64 { return r.n }

// PhysicalLines returns n+1 (the extra GapLine).
func (r *Region) PhysicalLines() uint64 { return r.n + 1 }

// Interval returns the remapping interval ψ.
func (r *Region) Interval() uint64 { return r.interval }

// Start returns the Start register (completed rounds mod n).
func (r *Region) Start() uint64 { return r.start }

// Gap returns the Gap register (the empty slot, in [0, n]).
func (r *Region) Gap() uint64 { return r.gap }

// Movements returns the total number of gap movements performed.
func (r *Region) Movements() uint64 { return r.movements }

// Rounds returns the number of completed rotation rounds.
func (r *Region) Rounds() uint64 { return r.rounds }

// Translate maps a region-local logical line index to its bank physical
// address using the MICRO'09 rule: PA = (LA + Start) mod n, incremented by
// one if it is at or past the gap.
func (r *Region) Translate(la uint64) uint64 {
	if la >= r.n {
		panic(fmt.Errorf("startgap: logical address %d out of region of %d lines", la, r.n))
	}
	pa := la + r.start
	if pa >= r.n {
		pa -= r.n
	}
	if pa >= r.gap {
		pa++
	}
	return r.base + pa
}

// WritesToNextMove returns how many demand writes from now until a gap
// movement fires: of the next k = WritesToNextMove() writes to the
// region, exactly the k-th triggers MoveGap. Always ≥ 1.
func (r *Region) WritesToNextMove() uint64 { return r.interval - r.writeCount }

// Epoch returns the bank physical address of region-local line la and
// WritesToNextMove — the region's side of wear.FastForwarder.Epoch.
func (r *Region) Epoch(la uint64) (pa, k uint64) {
	return r.Translate(la), r.WritesToNextMove()
}

// Advance books k demand writes into the region (1 ≤ k ≤
// WritesToNextMove) and, when the k-th completes the interval, performs
// the gap movement through m, returning its latency (0 otherwise). One
// write at a time it is the per-write booking; between gap movements the
// region's translation is frozen, so a batch is indistinguishable from k
// single writes. It panics if k ran past the movement; the check sits on
// the movement path so the movement-free path stays small enough to
// inline into every scheme's booking.
func (r *Region) Advance(k uint64, m wear.Mover) uint64 {
	r.writeCount += k
	if r.writeCount < r.interval {
		return 0
	}
	return r.completeInterval(k, m)
}

// completeInterval performs the gap movement of the write that completed
// the interval.
func (r *Region) completeInterval(k uint64, m wear.Mover) uint64 {
	if r.writeCount > r.interval {
		panic(fmt.Errorf("startgap: Advance(%d) would run past a gap movement (%d writes remain)",
			k, r.interval-(r.writeCount-k)))
	}
	r.writeCount = 0
	return r.MoveGap(m)
}

// MoveGap performs one gap movement unconditionally: the line before the
// gap slides into the gap; when the gap reaches slot 0 the round completes,
// the line in the top slot wraps to slot 0 and Start advances.
func (r *Region) MoveGap(m wear.Mover) uint64 {
	r.movements++
	if r.gap == 0 {
		// Round boundary: slot n currently holds the line that must wrap
		// to slot 0 so that the whole region has rotated by one.
		ns := m.Move(r.base+r.n, r.base+0)
		r.gap = r.n
		r.start++
		if r.start == r.n {
			r.start = 0
		}
		r.rounds++
		return ns
	}
	ns := m.Move(r.base+r.gap-1, r.base+r.gap)
	r.gap--
	return ns
}

// WritesPerRound returns the number of demand writes consumed by one full
// rotation round: (n+1) movements × interval.
func (r *Region) WritesPerRound() uint64 { return (r.n + 1) * r.interval }

// Single adapts a lone Region to the wear.Scheme interface, giving the
// plain (non-region-based) Start-Gap scheme over the whole bank — the
// baseline whose LVF the paper notes is too large against RAA without
// regioning.
type Single struct{ *Region }

// NewSingle wraps a whole-bank region of n lines with the given interval.
func NewSingle(n, interval uint64) (*Single, error) {
	r, err := New(n, interval, 0)
	if err != nil {
		return nil, err
	}
	return &Single{Region: r}, nil
}

// Name identifies the scheme.
func (s *Single) Name() string { return "start-gap" }

// LogicalLines returns the logical space size.
func (s *Single) LogicalLines() uint64 { return s.Lines() }

// NoteWrite implements wear.Scheme: one write of Advance.
func (s *Single) NoteWrite(la uint64, m wear.Mover) uint64 { return s.Advance(la, 1, m) }

// Advance implements wear.FastForwarder (with the promoted Region.Epoch):
// the region counts every write regardless of address.
func (s *Single) Advance(la, k uint64, m wear.Mover) uint64 {
	_ = la
	return s.Region.Advance(k, m)
}
