package pcm

import (
	"math"

	"securityrbsg/internal/stats"
)

// Process variation support. Real PCM cells do not share one endurance
// number: manufacturing variation gives each line its own budget, often
// modeled as a normal distribution around the nominal endurance (the
// motivation for "wear rate leveling", Dong et al. DAC'11, cited as [12]
// by the paper). A bank built with NewVariedBank draws a per-line
// endurance E_i ~ N(E, (σ·E)²), clamped to [E/10, 2E−E/10], and fails a
// line when its wear exceeds its own budget.
//
// The paper's evaluation assumes uniform endurance; variation is provided
// as an extension so the lifetime experiments can quantify how much the
// weakest-line effect costs each scheme (see the package tests: under
// uniform traffic the expected lifetime shrinks by roughly z·σ where z is
// the extreme-value factor of N lines).

// NewVariedBank builds a bank whose lines draw individual endurance
// budgets from N(cfg.Endurance, (sigma·cfg.Endurance)²) using the given
// seed. sigma = 0 reduces to NewBank.
func NewVariedBank(cfg Config, sigma float64, seed uint64) (*Bank, error) {
	b, err := NewBank(cfg)
	if err != nil {
		return nil, err
	}
	if sigma <= 0 {
		return b, nil
	}
	rng := stats.NewRNG(seed)
	b.endurances = make([]uint32, cfg.Lines)
	mean := float64(cfg.Endurance)
	lo, hi := mean/10, 2*mean-mean/10
	for i := range b.endurances {
		e := mean + sigma*mean*gaussian(rng)
		if e < lo {
			e = lo
		}
		if e > hi {
			e = hi
		}
		b.endurances[i] = uint32(e)
	}
	return b, nil
}

// gaussian draws a standard normal variate (Box–Muller; one value per
// call keeps the generator stateless).
func gaussian(rng *stats.RNG) float64 {
	u1 := rng.Float64()
	for u1 == 0 {
		u1 = rng.Float64()
	}
	u2 := rng.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// LineEndurance returns line pa's individual write budget (the nominal
// endurance when the bank has no variation).
func (b *Bank) LineEndurance(pa uint64) uint64 {
	b.check(pa)
	return b.budget(pa)
}

// budget is LineEndurance without the range check, for callers that
// have checked pa already.
func (b *Bank) budget(pa uint64) uint64 {
	if b.endurances == nil {
		return b.cfg.Endurance
	}
	return uint64(b.endurances[pa])
}

// WeakestLine returns the line with the smallest endurance budget and
// that budget.
func (b *Bank) WeakestLine() (pa uint64, endurance uint64) {
	if b.endurances == nil {
		return 0, b.cfg.Endurance
	}
	best := uint64(0)
	bestE := uint64(b.endurances[0])
	for i, e := range b.endurances {
		if uint64(e) < bestE {
			bestE = uint64(e)
			best = uint64(i)
		}
	}
	return best, bestE
}
