package lifetime

import (
	"math"

	"securityrbsg/internal/stats"
)

// This file holds the secondary lifetime models: BPA against RBSG (the
// attack that motivated Security Refresh) and the focused sub-region
// attack against Multi-Way SR (Section III-E's closing paragraph).

// BPAOnRBSG models the Birthday Paradox Attack against RBSG: each
// randomly chosen logical address is hammered for one Line Vulnerability
// Factor ((n+1)·ψ writes), pinning one physical slot per trial; trials
// land uniformly at random, so the first slot to accumulate E writes is
// a generalized-birthday first passage. This is the attack for which
// Seznec showed the LVF must sit "dozens of times" below the endurance.
func BPAOnRBSG(d Device, p RBSGParams) Estimate {
	n := d.Lines / p.Regions
	lvf := (n + 1) * p.Interval
	writes := uniformVisitLifetime(d, d.Lines, lvf)
	perWrite := float64(d.Timing.SetNs) +
		float64(d.Timing.ReadNs+d.Timing.SetNs)/float64(p.Interval)
	return Estimate{
		Scheme: "rbsg", Attack: "bpa",
		Writes:          writes,
		Seconds:         Seconds(writes, perWrite),
		FractionOfIdeal: writes / d.IdealWrites(),
	}
}

// FocusedOnMultiWay models the Section III-E observation that schemes
// which split the space into *consecutive* sub-regions leveled
// independently — Multi-Way SR — need no key detection at all: the
// attacker knows from the address bits which logical lines share a
// sub-region and simply floods one of them. Inner SR pins each hammered
// line for one refresh round, so the sub-region's n lines absorb uniform
// visits of n·ψ writes until one reaches endurance — a capacity of
// roughly E·n·eff writes instead of the whole bank's E·N.
func FocusedOnMultiWay(d Device, regions, interval uint64) Estimate {
	n := d.Lines / regions
	quantum := n * interval
	m := int(math.Ceil(float64(d.Endurance) / float64(quantum)))
	visits := stats.VisitsToMaxLoad(int(n), m)
	writes := visits * float64(quantum)
	perWrite := float64(d.Timing.SetNs) +
		float64(2*d.Timing.ReadNs+d.Timing.ResetNs+d.Timing.SetNs)/2/float64(interval)
	return Estimate{
		Scheme: "multiway-sr", Attack: "focused",
		Writes:          writes,
		Seconds:         Seconds(writes, perWrite),
		FractionOfIdeal: writes / d.IdealWrites(),
	}
}
