// Package secref implements Security Refresh (Seong et al., ISCA'10) — the
// second prior scheme the paper attacks — in three flavors:
//
//   - OneLevel: the basic scheme. Logical addresses are remapped by XOR
//     with a per-round random key; a Current Refresh Pointer (CRP) walks
//     the address space and each step swaps a logical address with its
//     pair (LA XOR keyc XOR keyp), exploiting the pairwise property that
//     the new location of LA is the old location of its pair.
//   - TwoLevel: the hierarchical variant the paper evaluates (outer SR over
//     the whole space producing intermediate addresses, inner SR per
//     equally-sized sub-region producing physical addresses).
//   - MultiWay: the Multi-Way SR variant (Yu & Du, TC'14) mentioned in
//     Section III-E — consecutive sub-regions each running an independent
//     one-level SR.
package secref

import (
	"fmt"

	"securityrbsg/internal/stats"
	"securityrbsg/internal/wear"
)

// OneLevel is a single Security Refresh domain of n lines (n must be a
// power of two). It can stand alone as a wear.Scheme or serve as the inner
// or outer level of TwoLevel.
type OneLevel struct {
	n        uint64 // lines (power of two)
	mask     uint64 // n-1
	interval uint64 // writes between refresh steps (ψ)
	base     uint64 // physical offset of line 0

	keyc, keyp uint64 // current and previous round keys
	crp        uint64 // next address to refresh, in [0, n]

	rng        *stats.RNG
	writeCount uint64
	steps      uint64 // refresh steps taken (CRP increments)
	swaps      uint64 // steps that physically swapped a pair
	rounds     uint64 // completed rounds
}

// NewOneLevel builds a Security Refresh domain of n lines starting at
// physical address base, stepping every interval writes, with keys drawn
// from rng. The initial state has keyc == keyp == a random key and a
// completed round (CRP == n), so the first step begins a fresh round.
func NewOneLevel(n, interval, base uint64, rng *stats.RNG) (*OneLevel, error) {
	if n == 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("secref: lines must be a power of two, got %d", n)
	}
	if interval == 0 {
		return nil, fmt.Errorf("secref: interval must be at least 1")
	}
	if rng == nil {
		rng = stats.NewRNG(0)
	}
	k := rng.Uint64() & (n - 1)
	return &OneLevel{
		n: n, mask: n - 1, interval: interval, base: base,
		keyc: k, keyp: k, crp: n, rng: rng,
	}, nil
}

// MustNewOneLevel is NewOneLevel that panics on error.
func MustNewOneLevel(n, interval, base uint64, rng *stats.RNG) *OneLevel {
	s, err := NewOneLevel(n, interval, base, rng)
	if err != nil {
		panic(err)
	}
	return s
}

// Name identifies the scheme.
func (s *OneLevel) Name() string { return "security-refresh" }

// LogicalLines returns n.
func (s *OneLevel) LogicalLines() uint64 { return s.n }

// PhysicalLines returns n — Security Refresh swaps pairs in place and
// needs no spare line.
func (s *OneLevel) PhysicalLines() uint64 { return s.n }

// Keys returns the current and previous round keys.
func (s *OneLevel) Keys() (keyc, keyp uint64) { return s.keyc, s.keyp }

// CRP returns the Current Refresh Pointer.
func (s *OneLevel) CRP() uint64 { return s.crp }

// Rounds returns the number of completed refresh rounds.
func (s *OneLevel) Rounds() uint64 { return s.rounds }

// Steps returns the number of refresh steps (CRP advances) taken.
func (s *OneLevel) Steps() uint64 { return s.steps }

// Swaps returns the number of steps that physically swapped two lines.
func (s *OneLevel) Swaps() uint64 { return s.swaps }

// Pair returns la's refresh partner in the current round:
// la XOR keyc XOR keyp. Remapping la means swapping it with Pair(la).
func (s *OneLevel) Pair(la uint64) uint64 { return la ^ s.keyc ^ s.keyp }

// remapped reports whether la has already been refreshed this round: the
// swap touching la happened when the CRP passed min(la, Pair(la)).
func (s *OneLevel) remapped(la uint64) bool {
	p := s.Pair(la)
	if p < la {
		return p < s.crp
	}
	return la < s.crp
}

// Translate maps a domain-local logical address to its physical line:
// XOR with keyc once refreshed this round, keyp before.
func (s *OneLevel) Translate(la uint64) uint64 {
	if la >= s.n {
		panic(fmt.Errorf("secref: logical address %d out of domain of %d lines", la, s.n))
	}
	if s.remapped(la) {
		return s.base + (la ^ s.keyc)
	}
	return s.base + (la ^ s.keyp)
}

// NoteWrite records one demand write and performs a refresh step through m
// when the interval has elapsed, returning the step's movement latency.
func (s *OneLevel) NoteWrite(la uint64, m wear.Mover) uint64 { return s.Advance(la, 1, m) }

// Epoch implements wear.FastForwarder for a standalone domain: every
// write counts toward the one refresh interval, so of the next k writes
// exactly the k-th triggers Step.
func (s *OneLevel) Epoch(la uint64) (pa, k uint64) {
	return s.Translate(la), s.interval - s.writeCount
}

// Advance implements wear.FastForwarder: book k writes to the domain
// (k ≤ Epoch's k) and perform the refresh step the k-th may complete.
// Between steps the translation is frozen, so a batch is
// indistinguishable from k single writes.
func (s *OneLevel) Advance(la, k uint64, m wear.Mover) uint64 {
	_ = la // a domain counts every write landing in it
	if s.tick(k) {
		return s.Step(m)
	}
	return 0
}

// tick books k writes against the refresh interval and reports whether
// the k-th completes it (resetting the counter); it panics when k would
// run past the step.
func (s *OneLevel) tick(k uint64) bool {
	if left := s.interval - s.writeCount; k > left {
		panic(fmt.Errorf("secref: %d writes would run past a refresh step (%d remain)", k, left))
	}
	s.writeCount += k
	if s.writeCount < s.interval {
		return false
	}
	s.writeCount = 0
	return true
}

// Step performs one refresh step unconditionally: start a new round if the
// previous one finished, then process the address under the CRP — swap it
// with its pair if that pair swap has not happened yet, else just advance.
func (s *OneLevel) Step(m wear.Mover) uint64 {
	if s.crp == s.n {
		s.keyp = s.keyc
		s.keyc = s.rng.Uint64() & s.mask
		s.crp = 0
	}
	la := s.crp
	pair := s.Pair(la)
	var ns uint64
	if pair > la {
		// The new location of la (la XOR keyc) is the old location of its
		// pair and vice versa, so one swap refreshes both.
		ns = m.Swap(s.base+(la^s.keyp), s.base+(la^s.keyc))
		s.swaps++
	}
	// pair < la: already swapped when CRP passed pair. pair == la: the
	// keys coincide on this address and the line stays put.
	s.crp++
	s.steps++
	if s.crp == s.n {
		s.rounds++
	}
	return ns
}

// WritesPerRound returns the demand writes consumed by one refresh round.
func (s *OneLevel) WritesPerRound() uint64 { return s.n * s.interval }
