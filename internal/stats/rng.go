// Package stats provides the numeric utilities shared by the simulator:
// a fast deterministic RNG, histograms, extreme-value solvers and summary
// statistics. Everything is allocation-light because the lifetime
// estimators call into this package billions of times.
package stats

// RNG is a SplitMix64 pseudo-random generator. It is deterministic for a
// given seed, has a full 2^64 period, passes BigCrush, and is an order of
// magnitude faster than math/rand — which matters because the Monte-Carlo
// lifetime estimators draw hundreds of millions of values per run.
//
// The zero value is a valid generator seeded with 0; use NewRNG to seed.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Two generators with the
// same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Seed resets the generator to the stream identified by seed.
func (r *RNG) Seed(seed uint64) { r.state = seed }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
// Uses Lemire's multiply-shift rejection method to avoid modulo bias.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("stats: Uint64n with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	// 128-bit multiply rejection.
	for {
		v := r.Uint64()
		hi, lo := mul64(v, n)
		if lo >= n || lo >= (-n)%n {
			return hi
		}
	}
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bits returns a value with exactly the low b bits random, b in [0,64].
func (r *RNG) Bits(b uint) uint64 {
	if b == 0 {
		return 0
	}
	if b >= 64 {
		return r.Uint64()
	}
	return r.Uint64() & ((1 << b) - 1)
}

// Source adapts an RNG to math/rand's Source64 interface (the methods
// match; no math/rand import is needed here). It exists for the few
// distribution shapers the simulator borrows from the standard library
// — e.g. rand.Zipf in internal/workload — so they draw from the
// deterministic per-seed stream instead of ambient randomness.
//
// This is the one sanctioned stats.RNG → rand.Source64 bridge: every
// call site that builds a rand.Rand on top of it is still flagged by
// the simdeterminism analyzer and must carry a
// //rbsglint:allow simdeterminism -- <reason> directive, keeping the
// justification next to the use.
type Source struct{ R *RNG }

// Int63 returns a non-negative 63-bit value from the stream.
func (s Source) Int63() int64 { return int64(s.R.Uint64() >> 1) }

// Uint64 returns the next 64 bits of the stream.
func (s Source) Uint64() uint64 { return s.R.Uint64() }

// Seed resets the underlying RNG to the stream identified by seed.
func (s Source) Seed(seed int64) { s.R.Seed(uint64(seed)) }

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t&mask + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return
}
