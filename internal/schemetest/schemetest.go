// Package schemetest provides the shared verification harness for
// wear-leveling schemes: a token-tracking Mover that follows every data
// movement a scheme performs, so tests can assert — after any sequence of
// writes and remapping rounds — that each logical address still resolves
// to the physical line holding its data.
//
// This is the strongest invariant a translation layer has (mapping and
// data never diverge) and it is exactly the property the paper's Fig 9
// pseudocode would violate on multi-cycle key permutations; the core
// package's tests lean on this harness to validate the corrected
// remapping walk. CheckBijection is the cheaper, mapping-only check the
// scheme tests share.
package schemetest

import (
	"fmt"

	"securityrbsg/internal/stats"
	"securityrbsg/internal/wear"
)

// Empty marks a physical line not currently holding any logical line's
// data (gap and spare lines).
const Empty = ^uint64(0)

// TokenMover implements wear.Mover by moving opaque tokens instead of
// touching a bank. Latencies returned are zero (tests that need timing
// use a real pcm.Bank).
type TokenMover struct {
	// Tokens[pa] is the logical address whose data line pa holds, or
	// Empty.
	Tokens []uint64
	// Moves and Swaps count operations performed.
	Moves, Swaps uint64
}

// NewTokenMover seeds a tracker from the scheme's current translation:
// every logical line's token is placed at its translated physical line.
func NewTokenMover(s wear.Scheme) *TokenMover {
	m := &TokenMover{Tokens: make([]uint64, s.PhysicalLines())}
	for i := range m.Tokens {
		m.Tokens[i] = Empty
	}
	for la := uint64(0); la < s.LogicalLines(); la++ {
		pa := s.Translate(la)
		if m.Tokens[pa] != Empty {
			panic(fmt.Sprintf("schemetest: initial translation collides at PA %d", pa))
		}
		m.Tokens[pa] = la
	}
	return m
}

// Move copies the token at src to dst. Moving onto an occupied line is
// legal only as an overwrite of a line whose data was already moved away
// (the harness cannot see intent, so it simply overwrites); Verify will
// catch any resulting divergence.
func (m *TokenMover) Move(src, dst uint64) uint64 {
	m.Tokens[dst] = m.Tokens[src]
	m.Tokens[src] = Empty
	m.Moves++
	return 0
}

// Swap exchanges the tokens at x and y.
func (m *TokenMover) Swap(x, y uint64) uint64 {
	m.Tokens[x], m.Tokens[y] = m.Tokens[y], m.Tokens[x]
	m.Swaps++
	return 0
}

// Verify checks that every logical address translates to the physical
// line holding its token, returning a description of the first divergence.
func Verify(s wear.Scheme, m *TokenMover) error {
	for la := uint64(0); la < s.LogicalLines(); la++ {
		pa := s.Translate(la)
		if pa >= uint64(len(m.Tokens)) {
			return fmt.Errorf("%s: LA %d translates to PA %d beyond physical space %d",
				s.Name(), la, pa, len(m.Tokens))
		}
		if m.Tokens[pa] != la {
			return fmt.Errorf("%s: LA %d translates to PA %d, but that line holds %s",
				s.Name(), la, pa, tokenName(m.Tokens[pa]))
		}
	}
	return nil
}

// CheckBijection verifies that s.Translate is an injection from the
// logical space into the physical space, returning an error describing
// the first collision or out-of-range address. It is O(logical lines).
func CheckBijection(s wear.Scheme) error {
	seen := make(map[uint64]uint64, s.LogicalLines())
	for la := uint64(0); la < s.LogicalLines(); la++ {
		pa := s.Translate(la)
		if pa >= s.PhysicalLines() {
			return fmt.Errorf("%s: LA %d translates to PA %d beyond physical space %d",
				s.Name(), la, pa, s.PhysicalLines())
		}
		if prev, dup := seen[pa]; dup {
			return fmt.Errorf("%s: LA %d and LA %d both translate to PA %d",
				s.Name(), prev, la, pa)
		}
		seen[pa] = la
	}
	return nil
}

func tokenName(t uint64) string {
	if t == Empty {
		return "nothing"
	}
	return fmt.Sprintf("LA %d's data", t)
}

// Exercise drives `writes` random demand writes through the scheme,
// verifying the mapping/data invariant every `checkEvery` writes (and
// once at the end). It returns the mover for further inspection.
func Exercise(s wear.Scheme, writes, checkEvery int, seed uint64) (*TokenMover, error) {
	m := NewTokenMover(s)
	if err := Verify(s, m); err != nil {
		return m, fmt.Errorf("before any writes: %w", err)
	}
	rng := stats.NewRNG(seed)
	n := s.LogicalLines()
	for i := 1; i <= writes; i++ {
		s.NoteWrite(rng.Uint64n(n), m)
		if checkEvery > 0 && i%checkEvery == 0 {
			if err := Verify(s, m); err != nil {
				return m, fmt.Errorf("after %d writes: %w", i, err)
			}
		}
	}
	if err := Verify(s, m); err != nil {
		return m, fmt.Errorf("after %d writes: %w", writes, err)
	}
	return m, nil
}

// ExerciseHammer drives `writes` demand writes to a single logical
// address (the RAA pattern — it exercises remapping much faster than
// uniform traffic), verifying every `checkEvery` writes.
func ExerciseHammer(s wear.Scheme, la uint64, writes, checkEvery int) (*TokenMover, error) {
	m := NewTokenMover(s)
	for i := 1; i <= writes; i++ {
		s.NoteWrite(la, m)
		if checkEvery > 0 && i%checkEvery == 0 {
			if err := Verify(s, m); err != nil {
				return m, fmt.Errorf("after %d hammer writes: %w", i, err)
			}
		}
	}
	if err := Verify(s, m); err != nil {
		return m, fmt.Errorf("after %d hammer writes: %w", writes, err)
	}
	return m, nil
}
