// Package analytic holds the closed-form models from the paper that are
// not simulations: the hardware-overhead accounting of Section V-C-3, the
// security condition that sizes the Dynamic Feistel Network (Section IV-B
// / V-C-1), and the duration conversions the lifetime reports use.
package analytic

import (
	"fmt"
	"math"
)

// Log2 returns ceil(log2(n)) for n >= 1 (0 for n <= 1).
func Log2(n uint64) uint {
	b := uint(0)
	for v := n - 1; v > 0; v >>= 1 {
		b++
	}
	return b
}

// Overhead is the hardware cost of a Security RBSG instance.
type Overhead struct {
	// RegisterBits counts controller registers: the outer level needs B
	// bits of Gap and log2(ψo) of write counter plus B bits per stage for
	// the Kc and Kp entries; each inner sub-region needs Start, Gap and a
	// write counter.
	RegisterBits uint64
	// SparePCMBytes is the extra PCM for gap lines: one per sub-region
	// plus the outer spare line.
	SparePCMBytes uint64
	// SRAMBits is the isRemap bit storage (one bit per line).
	SRAMBits uint64
	// Gates approximates the DFN logic: each stage's cubing circuit is a
	// squarer (≈ B²/2 gates) feeding a multiplier (≈ B² gates) on
	// half-width operands, (3/8)·B² per stage (Liddicoat & Flynn).
	Gates uint64
}

// OverheadParams are the inputs to the overhead model.
type OverheadParams struct {
	Lines         uint64 // logical lines N
	Regions       uint64 // inner sub-regions R
	InnerInterval uint64 // ψ inner
	OuterInterval uint64 // ψ outer
	Stages        int    // DFN stages S
	LineBytes     uint64 // memory line size
}

// ComputeOverhead evaluates the Section V-C-3 formulas:
//
//	registers: (S+1)·B + log2(ψo) + R·(2·log2(N/R) + log2(ψi)) bits
//	spare PCM: (R+1) lines — the paper's text prints "(S+1)×256 byte",
//	           which is inconsistent with its own scheme (every one of the
//	           R sub-regions carries a GapLine, plus the outer spare); we
//	           report the per-construction count
//	SRAM:      N isRemap bits (0.5 MB for the 1 GB / 256 B configuration,
//	           matching the paper's stated total)
//	gates:     (3/8)·S·B²
func ComputeOverhead(p OverheadParams) Overhead {
	b := uint64(Log2(p.Lines))
	perRegion := p.Lines / p.Regions
	return Overhead{
		RegisterBits: (uint64(p.Stages)+1)*b + uint64(Log2(p.OuterInterval)) +
			p.Regions*(2*uint64(Log2(perRegion))+uint64(Log2(p.InnerInterval))),
		SparePCMBytes: (p.Regions + 1) * p.LineBytes,
		SRAMBits:      p.Lines,
		Gates:         3 * uint64(p.Stages) * b * b / 8,
	}
}

// MinStages returns the smallest DFN stage count that keeps the key ahead
// of RTA detection for an outer remapping interval ψo over a B-bit
// address space.
//
// Derivation (Section IV-B, conceding the attacker SR-grade efficiency):
// detecting one key bit costs at least N/R writes to the target
// sub-region; the keys rotate after one outer remapping round, which the
// paper accounts as (N/R)·ψo such writes. Detection fails when
// S·B · (N/R) ≥ (N/R)·ψo, i.e. when S·B ≥ ψo — the paper's example:
// 22-bit stage keys, ψo = 128 ⇒ a ≥128-bit key array ⇒ S = 6, and 6
// stages remain sufficient up to ψo = 132.
func MinStages(outerInterval uint64, addressBits uint) int {
	if addressBits == 0 {
		return 1
	}
	s := int((outerInterval + uint64(addressBits) - 1) / uint64(addressBits))
	if s < 1 {
		s = 1
	}
	return s
}

// DetectionOutrunsKeys reports whether an RTA key extraction (at the
// conceded one-bit-per-(N/R)-writes rate) completes before the DFN
// re-keys — true means the configuration is insecure.
func DetectionOutrunsKeys(stages int, addressBits uint, outerInterval uint64) bool {
	return uint64(stages)*uint64(addressBits) < outerInterval
}

// SecondsToDays converts a duration for reporting.
func SecondsToDays(s float64) float64 { return s / 86400 }

// SecondsToYears converts a duration.
func SecondsToYears(s float64) float64 { return s / (86400 * 365) }

// HumanDuration renders seconds at an appropriate scale.
func HumanDuration(s float64) string {
	switch {
	case s < 1:
		return fmt.Sprintf("%.3gms", s*1e3)
	case s < 120:
		return fmt.Sprintf("%.3gs", s)
	case s < 2*3600:
		return fmt.Sprintf("%.3gmin", s/60)
	case s < 3*86400:
		return fmt.Sprintf("%.3gh", s/3600)
	case s < 400*86400:
		return fmt.Sprintf("%.3gdays", SecondsToDays(s))
	default:
		return fmt.Sprintf("%.3gyears", math.Round(SecondsToYears(s)*100)/100)
	}
}
