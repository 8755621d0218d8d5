package lifetime

import "math"

// This file holds the closed-form Fig 11 models: RBSG under the Repeated
// Address Attack and under the Remapping Timing Attack, following the
// write accounting of Sections III-B and V-A.

// RBSGParams are the RBSG configuration knobs the paper sweeps.
type RBSGParams struct {
	Regions  uint64 // R: 32–128, 32 recommended
	Interval uint64 // ψ: 16–100, 100 recommended
}

// RAAOnRBSG models hammering one logical address against RBSG.
//
// All attacker writes land in one region. Start-Gap shifts the hammered
// line by one slot per region round ((n+1)·ψ writes), and the line returns
// to a given slot every n+1 rounds, so a fraction 1/(n+1) of demand writes
// — plus one remap write per round — accumulates on each slot:
//
//	wear(T) = T/(n+1) + T/((n+1)·ψ)  ⇒  T_fail = E·(n+1)·ψ/(ψ+1).
//
// That average holds while a slot survives one visit, (n+1)·ψ < E. A
// longer round kills the line on its first visit: on its first slot, or,
// when the gap reaches it there first (after a uniform share of the
// round), on the next one. Averaged over the gap's start,
//
//	T_fail = E + E²/(2·(n+1)·ψ),  between E and 1.5·E.
//
// Demand writes are generic data (SET latency); each gap movement adds a
// read + SET copy.
func RAAOnRBSG(d Device, p RBSGParams) Estimate {
	n := float64(d.Lines) / float64(p.Regions)
	psi := float64(p.Interval)
	e := float64(d.Endurance)
	round := (n + 1) * psi
	writes := e * round / (psi + 1)
	if round >= e {
		writes = e + e*e/(2*round)
	}
	perWrite := float64(d.Timing.SetNs) +
		float64(d.Timing.ReadNs+d.Timing.SetNs)/psi // amortized movement
	return Estimate{
		Scheme: "rbsg", Attack: "raa",
		Writes:          writes,
		Seconds:         Seconds(writes, perWrite),
		FractionOfIdeal: writes / d.IdealWrites(),
	}
}

// RTAOnRBSG models the Remapping Timing Attack of Section III-B.
//
// Phase costs (B = log2 N address bits, n = N/R lines per region):
//
//	align:  one ALL-0 sweep (N RESET writes) plus hammering Li with ALL-1
//	        for half a region round on average;
//	detect: per address bit — one pattern sweep (N writes, half SET half
//	        RESET) + (ψ−1)·n hammer writes re-aligning Li + ψ writes per
//	        sequence address (the paper's (N+(ψ−1)·N/R)·log2 N count);
//	wear:   the recovered sequence keeps every write on one physical slot
//	        until it fails: E generic writes.
//
// The sequence length the attack must recover is n_seq = ⌈E/((n+1)·ψ)⌉.
//
// Latency accounting follows the paper, which costs every attack write at
// the SET latency (1000 ns) — reproducing the 478 s / 27435× headline at
// the recommended configuration. A real attacker writing ALL-0-heavy
// patterns would shave roughly 40% off the detection phases (the crafted
// pattern averages (SET+RESET)/2), making RTA strictly *worse* for the
// defender than the figures below.
func RTAOnRBSG(d Device, p RBSGParams) Estimate {
	nLines := float64(d.Lines)
	n := nLines / float64(p.Regions)
	psi := float64(p.Interval)
	b := float64(d.AddressBits())
	nSeq := math.Ceil(float64(d.Endurance) / ((n + 1) * psi))

	t := d.Timing
	w := float64(t.SetNs) // paper accounting: all writes at SET latency

	alignWrites := nLines + (n+1)*psi/2
	detectWrites := (nLines + (psi-1)*n + nSeq*psi) * b
	wearWrites := float64(d.Endurance)

	writes := alignWrites + detectWrites + wearWrites
	secs := writes * w * 1e-9
	return Estimate{
		Scheme: "rbsg", Attack: "rta",
		Writes:          writes,
		Seconds:         secs,
		FractionOfIdeal: writes / d.IdealWrites(),
	}
}

// RAAOnStartGap models RAA against a single whole-bank Start-Gap region
// (no regioning): the same formula with R = 1 — the configuration whose
// Line Vulnerability Factor the MICRO'09 paper shows is uselessly large.
// At paper scale its round, (2^22+1)·ψ writes, outlasts E = 10^8 for any
// ψ ≥ 24, so the hammered line dies on its first visit.
func RAAOnStartGap(d Device, interval uint64) Estimate {
	e := RAAOnRBSG(d, RBSGParams{Regions: 1, Interval: interval})
	e.Scheme = "start-gap"
	return e
}
