package attack

import (
	"securityrbsg/internal/pcm"
	"securityrbsg/internal/wear"
)

// AIA runs the Address Inference Attack of the paper's Section II-B,
// category 3: an adversary who has compromised the system and can infer
// the current logical→physical mapping — trivially possible against any
// *deterministic* wear-leveling scheme, whose decisions can be replayed
// from the attacker's own write stream (the paper's case against the
// table-based family).
//
// The attack pins one physical line: it hammers whichever logical
// address currently maps to victimPA and re-infers the occupant whenever
// the scheme migrates it away. Against randomized schemes the same code
// runs but stands in for an implausibly strong oracle; comparing the two
// quantifies how much of a scheme's security is key secrecy versus
// structure.
//
// The hammer goes out one frozen stretch at a time: the Epoch of the
// hammered line when the scheme is a wear.FastForwarder, else one
// write. Within a stretch only the last write can move anything, so the
// attacker rescans the mapping only after it, and the run (writes,
// observed time, wear state) is bit-identical to rescanning before every
// write.
func AIA(c *wear.Controller, victimPA uint64, content pcm.Content, maxWrites uint64) Result {
	r := runState{c: c, max: maxWrites}
	scheme := c.Scheme()
	ff, _ := scheme.(wear.FastForwarder)
	occupant, ok := occupantOf(scheme, victimPA)
	for !r.done() {
		if !ok || scheme.Translate(occupant) != victimPA {
			occupant, ok = occupantOf(scheme, victimPA)
		}
		la := occupant
		if !ok {
			// The victim line is momentarily unmapped (a gap/spare
			// slot). Burn writes on the line next to it — same region,
			// so the scheme's rotation advances and the victim comes
			// back into use.
			var mapped bool
			if la, mapped = occupantOf(scheme, victimPA+1); !mapped {
				la, _ = occupantOf(scheme, victimPA-1) // 0 if unmapped too
			}
		}
		stretch := uint64(1)
		if ff != nil {
			_, stretch = ff.Epoch(la)
		}
		r.writeRun(la, content, stretch)
	}
	return r.res
}

// occupantOf scans for the logical address currently mapped to pa.
func occupantOf(s wear.Scheme, pa uint64) (uint64, bool) {
	for la := uint64(0); la < s.LogicalLines(); la++ {
		if s.Translate(la) == pa {
			return la, true
		}
	}
	return 0, false
}
