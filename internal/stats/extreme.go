package stats

import "math"

// This file implements the extreme-value machinery used by the accelerated
// lifetime estimators. Several attacks reduce to a "balls into bins" visit
// process: the hammered logical line is pinned, for one remapping round, to
// a physical line chosen (pseudo-)uniformly by the scheme's random keys,
// and that physical line absorbs a fixed number of writes (one "visit").
// The device fails when some bin accumulates m visits, so the lifetime is
// the number of visits until the maximum bin load reaches m.
//
// For paper-scale geometries (n = 2^22 bins, m ≈ 200 visits) direct
// simulation of every trial in a parameter sweep is wasteful; the maximum
// of n i.i.d. Poisson(λ) variables concentrates sharply, so we solve for
// the visit count at which the expected number of bins at or above m
// crosses ln 2 (the median of the extreme). The Monte-Carlo estimators
// cross-validate this solver at small scale (TestVisitsToMaxLoadMonteCarlo
// in stats_test.go).

// PoissonTail returns P(X >= m) for X ~ Poisson(lambda), computed by
// summing the complementary series in log space for numerical stability.
func PoissonTail(lambda float64, m int) float64 {
	if m <= 0 {
		return 1
	}
	if lambda <= 0 {
		return 0
	}
	// P(X >= m) = 1 - P(X <= m-1). For lambda << m the tail is tiny and
	// the direct complementary sum loses all precision, so sum the upper
	// tail directly: P(X >= m) = sum_{k>=m} e^-λ λ^k / k!.
	logTerm := -lambda + float64(m)*math.Log(lambda) - logFactorial(m)
	// Sum the tail with the ratio recurrence term_{k+1} = term_k * λ/(k+1).
	term := math.Exp(logTerm)
	if term == 0 {
		return 0
	}
	sum := term
	k := m
	for i := 0; i < 10000; i++ {
		k++
		term *= lambda / float64(k)
		sum += term
		if term < sum*1e-15 {
			break
		}
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

// logFactorial returns ln(m!) using Stirling's series for large m.
func logFactorial(m int) float64 {
	if m < 2 {
		return 0
	}
	if m < 32 {
		var s float64
		for k := 2; k <= m; k++ {
			s += math.Log(float64(k))
		}
		return s
	}
	x := float64(m)
	return x*math.Log(x) - x + 0.5*math.Log(2*math.Pi*x) +
		1/(12*x) - 1/(360*x*x*x)
}

// VisitsToMaxLoad returns the expected number of uniform random visits over
// n bins until some bin has received m visits (the median of the first
// passage of the maximum load). It solves n * P(Poisson(V/n) >= m) = ln 2
// for V by bisection. For m == 1 it returns 1 (the first visit already
// creates a bin of load 1).
func VisitsToMaxLoad(n int, m int) float64 {
	if n <= 0 {
		panic("stats: VisitsToMaxLoad with n <= 0")
	}
	if m <= 1 {
		return 1
	}
	target := math.Ln2 / float64(n)
	// λ is bounded above by m (mean load can't exceed m before the max
	// does) and below by ~0.
	lo, hi := 0.0, float64(m)
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if PoissonTail(mid, m) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2 * float64(n)
}
