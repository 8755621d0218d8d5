// Package feistel implements the address randomizers used by the
// wear-leveling schemes in the paper:
//
//   - a multi-stage balanced Feistel network with the cubing round function
//     L' = R XOR (L XOR K)^3 — the construction RBSG uses statically (keys
//     fixed at boot) and Security RBSG uses dynamically (keys re-drawn every
//     remapping round, stage count = security level);
//   - a random invertible binary matrix (RIBM) over GF(2), the alternative
//     static randomizer mentioned by the RBSG paper;
//   - a cycle-walking wrapper that restricts any of the above to an
//     address space whose size is not a power of two.
//
// All permutations are bijections on [0, 2^B) for an even bit width B, and
// every construction exposes both directions because the schemes need
// ENC to place data and DEC to answer "which logical address lands here".
package feistel

import (
	"errors"
	"fmt"

	"securityrbsg/internal/stats"
)

// Network is a balanced multi-stage Feistel network over B-bit values.
// The zero value is not usable; construct with New or Random.
type Network struct {
	bits uint   // total width B (even)
	half uint   // B/2
	mask uint64 // low-half mask
	keys []uint64
}

// New builds a network over bits-wide values (bits must be even and in
// [2, 62]) with one key per stage. Keys are truncated to the half width.
func New(bits uint, keys []uint64) (*Network, error) {
	if bits < 2 || bits > 62 || bits%2 != 0 {
		return nil, fmt.Errorf("feistel: width must be even and in [2,62], got %d", bits)
	}
	if len(keys) == 0 {
		return nil, errors.New("feistel: need at least one stage key")
	}
	n := &Network{bits: bits, half: bits / 2, mask: (1 << (bits / 2)) - 1}
	n.keys = make([]uint64, len(keys))
	for i, k := range keys {
		n.keys[i] = k & n.mask
	}
	return n, nil
}

// Random builds a network with `stages` uniformly random keys drawn from rng.
func Random(bits uint, stages int, rng *stats.RNG) (*Network, error) {
	if stages <= 0 {
		return nil, errors.New("feistel: need at least one stage")
	}
	keys := make([]uint64, stages)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	return New(bits, keys)
}

// MustRandom is Random that panics on error; for literal configurations.
func MustRandom(bits uint, stages int, rng *stats.RNG) *Network {
	n, err := Random(bits, stages, rng)
	if err != nil {
		panic(err)
	}
	return n
}

// RekeyRandom redraws every stage key in place from rng, consuming
// exactly the draws Random would — a Network rekeyed this way is
// indistinguishable from a freshly constructed one, so per-round key
// redraws (Security RBSG's DFN, the lifetime estimators) need no
// allocation and leave deterministic RNG streams untouched.
func (n *Network) RekeyRandom(rng *stats.RNG) {
	for i := range n.keys {
		n.keys[i] = rng.Uint64() & n.mask
	}
}

// SetStages resizes the key schedule to stages entries in place,
// reusing the existing array when it is large enough. The resized keys
// are all zero until the next RekeyRandom; callers that change the
// security level mid-stream rekey immediately after, so the RNG draw
// sequence stays exactly one draw per stage — indistinguishable from a
// fresh Random construction at the new stage count. Wrappers holding
// the Network by pointer (Walker, core.Scheme's cycle-walked perms) see
// the change without rebuilding.
func (n *Network) SetStages(stages int) error {
	if stages <= 0 {
		return errors.New("feistel: need at least one stage")
	}
	if stages <= cap(n.keys) {
		n.keys = n.keys[:stages]
		for i := range n.keys {
			n.keys[i] = 0
		}
	} else {
		n.keys = make([]uint64, stages)
	}
	return nil
}

// MustSetStages is SetStages that panics on error; for call sites that
// validated the stage count already (e.g. core.Scheme.SetStages).
func (n *Network) MustSetStages(stages int) {
	if err := n.SetStages(stages); err != nil {
		panic(err)
	}
}

// Bits returns the permutation width B.
func (n *Network) Bits() uint { return n.bits }

// Stages returns the number of Feistel stages.
func (n *Network) Stages() int { return len(n.keys) }

// Keys returns a copy of the per-stage keys (each half-width bits).
func (n *Network) Keys() []uint64 {
	return append([]uint64(nil), n.keys...)
}

// Domain returns the permutation domain size 2^B.
func (n *Network) Domain() uint64 { return 1 << n.bits }

// round is the paper's round function: the cube of (l XOR k) truncated to
// the half width. Truncation commutes with uint64 overflow, so the plain
// three-multiply product is exact mod 2^half.
func (n *Network) round(l, k uint64) uint64 {
	x := (l ^ k) & n.mask
	return (x * x * x) & n.mask
}

// Encrypt permutes x (must be < 2^B). Each stage maps (L, R) to
// (R XOR F(L, K), L), matching Fig 7(a) of the paper.
func (n *Network) Encrypt(x uint64) uint64 {
	l := x >> n.half
	r := x & n.mask
	for _, k := range n.keys {
		l, r = (r^n.round(l, k))&n.mask, l
	}
	return l<<n.half | r
}

// Decrypt inverts Encrypt: the same stage structure with the key schedule
// reversed, each stage mapping (L, R) to (R, L XOR F(R, K)), matching
// Fig 7(b).
func (n *Network) Decrypt(x uint64) uint64 {
	l := x >> n.half
	r := x & n.mask
	for i := len(n.keys) - 1; i >= 0; i-- {
		l, r = r, (l^n.round(r, n.keys[i]))&n.mask
	}
	return l<<n.half | r
}

// Permutation is any invertible mapping on [0, Domain()). Network, Matrix
// and Walker all satisfy it, as does Identity.
type Permutation interface {
	Encrypt(uint64) uint64
	Decrypt(uint64) uint64
	Domain() uint64
}

// Identity is the trivial permutation on [0, n); useful as a baseline
// randomizer (an RBSG without address-space randomization).
type Identity uint64

// Encrypt returns x unchanged.
func (i Identity) Encrypt(x uint64) uint64 { return x }

// Decrypt returns x unchanged.
func (i Identity) Decrypt(x uint64) uint64 { return x }

// Domain returns the domain size.
func (i Identity) Domain() uint64 { return uint64(i) }

// Walker restricts an even-width permutation to an arbitrary domain [0, N)
// by cycle-walking: out-of-range outputs are fed back through the
// permutation until they land in range. Because the inner mapping is a
// bijection the walk always terminates and the restriction is itself a
// bijection on [0, N).
type Walker struct {
	inner Permutation
	n     uint64
}

// NewWalker wraps inner so the result permutes [0, n). n must be at most
// the inner domain; if n equals it the walker is a no-op passthrough.
func NewWalker(inner Permutation, n uint64) (*Walker, error) {
	if n == 0 || n > inner.Domain() {
		return nil, fmt.Errorf("feistel: walker domain %d out of range (inner %d)", n, inner.Domain())
	}
	return &Walker{inner: inner, n: n}, nil
}

// MustNewWalker is NewWalker that panics on error; for call sites whose
// domain is already validated (e.g. schemes that checked Lines against
// the randomizer width at construction).
func MustNewWalker(inner Permutation, n uint64) *Walker {
	w, err := NewWalker(inner, n)
	if err != nil {
		panic(err)
	}
	return w
}

// Encrypt permutes x within [0, n).
func (w *Walker) Encrypt(x uint64) uint64 {
	y := w.inner.Encrypt(x)
	for y >= w.n {
		y = w.inner.Encrypt(y)
	}
	return y
}

// Decrypt inverts Encrypt within [0, n).
func (w *Walker) Decrypt(x uint64) uint64 {
	y := w.inner.Decrypt(x)
	for y >= w.n {
		y = w.inner.Decrypt(y)
	}
	return y
}

// Domain returns the restricted domain size.
func (w *Walker) Domain() uint64 { return w.n }
