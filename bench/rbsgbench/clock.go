package main

import (
	"math"
	"sort"
	"time"
)

// now is the benchmark's only wall-clock read; every duration it
// reports is a difference of two values from here.
func now() time.Time {
	//rbsglint:allow simdeterminism -- the benchmark measures real elapsed time of the system under test; nothing simulated reads it
	return time.Now()
}

// rng is splitmix64: the benchmark draws its inputs from its own
// generator so a change to the repository's RNG cannot change them.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the "inclusive" method of Python's statistics module),
// sorting xs in place. NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	// The equality test keeps +Inf samples (failed frames) from turning
	// into Inf-Inf = NaN.
	if lo+1 >= len(xs) || frac == 0 || xs[lo] == xs[lo+1] {
		return xs[lo]
	}
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
