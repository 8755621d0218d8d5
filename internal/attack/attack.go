// Package attack implements the three malicious write-stream families the
// paper studies, against any wear-leveled PCM target:
//
//   - RAA, the Repeated Address Attack: hammer one logical address.
//   - BPA, the Birthday Paradox Attack: hammer randomly chosen logical
//     addresses, each until it has plausibly been remapped away.
//   - RTA, the Remapping Timing Attack introduced by the paper: craft
//     ALL-0/ALL-1 write patterns and watch per-write latency to catch the
//     scheme's remapping movements, recovering mapping secrets one bit at
//     a time. Variants target RBSG (rta_rbsg.go), one-level Security
//     Refresh (rta_sr.go) and two-level Security Refresh (rta_sr2.go).
//     Run against Security RBSG, the RBSG variant fails
//     (TestSecurityRBSGResistsRTARBSG).
//
// The three RTA variants share one write path (rta.go): it issues their
// writes singly, as batched runs or as full sweeps, checks the Oracle
// and the write budget, and books the Result. Each variant keeps only
// its shadow model of the victim and its phases; the two Security
// Refresh variants also share the shadow of the refresh step schedule
// and the swap-latency classifier.
//
// Attackers interact with memory only through the Target interface —
// logical reads and writes with observed latency — which is exactly the
// paper's threat model (compromised OS, caches bypassed, scheme public,
// keys secret).
package attack

import (
	"securityrbsg/internal/pcm"
	"securityrbsg/internal/stats"
	"securityrbsg/internal/wear"
)

// Target is the attacker's view of memory: the logical interface of a
// wear.Controller. Latencies are in nanoseconds and include any remapping
// movement triggered by the request — the timing side channel.
type Target interface {
	Write(la uint64, content pcm.Content) uint64
	Read(la uint64) (pcm.Content, uint64)
}

// BatchTarget is an optional Target capability for the exact-simulation
// fast path (wear.Controller and exactsim.FastTarget implement it): issue
// a run of identical writes to one address in bulk, bit-identical to n
// single writes. onEvent fires for every write whose observed latency
// differs from an unremarkable write's — exactly the anomalies the RTA
// watches — so batching loses nothing of the side channel. The timing
// attacks detect this capability and evaluate their Oracle and MaxWrites
// budget at batch boundaries instead of before every write, which
// stopOnFail keeps exact for the device-failure oracle (see engine).
type BatchTarget interface {
	Target
	WriteRun(la uint64, content pcm.Content, n uint64, stopOnFail bool, onEvent func(i, ns uint64) bool) (issued, totalNs uint64)
}

// SweepTarget is an optional Target capability: execute one full
// SweepPattern (bit ≥ 0) or SweepZeros (bit < 0) pass over the logical
// space at once, returning the demand writes issued and the attacker-
// observed time. ok is false when the target cannot prove the batched
// sweep is bit-identical to the naive loop (e.g. a line could fail
// mid-sweep, perturbing failure-time accounting) — the caller must then
// run the write-by-write loop itself; nothing was issued.
type SweepTarget interface {
	Target
	Sweep(bit int) (writes, ns uint64, ok bool)
}

// Result summarizes an attack run.
type Result struct {
	// Writes is the number of demand writes the attacker issued.
	Writes uint64
	// AttackNs is the attacker-observed elapsed time (sum of latencies).
	AttackNs uint64
	// Failed reports whether the attack wore some line past endurance.
	Failed bool
	// FailedPA is the physical line that failed first (when Failed). RAA,
	// BPA and AIA fill it from the controller they drive. The timing
	// attacks (RTARBSG, RTASR, RTATwoLevelSRExact) see only their Target
	// and a boolean Oracle, so they leave it 0: read the line from the
	// bank's FirstFailure.
	FailedPA uint64
}

// runState tracks progress against the stop condition RAA, BPA and AIA
// share: the bank's first line failure or the write budget.
type runState struct {
	c   *wear.Controller
	max uint64
	res Result
}

func (r *runState) done() bool {
	if pa, _, ok := r.c.Bank().FirstFailure(); ok {
		r.res.Failed = true
		r.res.FailedPA = pa
		return true
	}
	return r.max > 0 && r.res.Writes >= r.max
}

// writeRun issues up to n writes of content to la through
// Controller.WriteRun, clamped to the budget and truncated right after
// the bank's first failure — the write after which the per-write done()
// check would have stopped — so it is exact against that loop.
func (r *runState) writeRun(la uint64, content pcm.Content, n uint64) {
	if r.max > 0 && r.max-r.res.Writes < n {
		n = r.max - r.res.Writes
	}
	issued, ns := r.c.WriteRun(la, content, n, true, nil)
	r.res.Writes += issued
	r.res.AttackNs += ns
}

// raaChunk bounds one WriteRun call so the stop condition is still
// re-evaluated periodically under an unbounded budget.
const raaChunk = 1 << 22

// RAA runs the Repeated Address Attack: write content to la until a line
// fails or maxWrites demand writes have been issued (0 = unbounded). The
// paper's generic attacker writes ordinary data, so content defaults to
// Mixed when the zero value is not what you want — pass explicitly.
//
// The hammer is issued through Controller.WriteRun, which truncates the
// batch exactly at the bank's first failure, so the result (writes,
// observed time, wear state) is bit-identical to the write-by-write loop
// at a fraction of the cost when the scheme supports fast-forwarding.
func RAA(c *wear.Controller, la uint64, content pcm.Content, maxWrites uint64) Result {
	r := runState{c: c, max: maxWrites}
	for !r.done() {
		r.writeRun(la, content, raaChunk)
	}
	return r.res
}

// BPA runs the Birthday Paradox Attack: pick a uniformly random logical
// address, hammer it hammerWrites times (enough that the scheme has
// plausibly remapped it — the attacker uses its knowledge of the Line
// Vulnerability Factor), then pick another, until a line fails or
// maxWrites writes have been issued (0 = unbounded).
func BPA(c *wear.Controller, hammerWrites uint64, content pcm.Content, seed, maxWrites uint64) Result {
	if hammerWrites == 0 {
		hammerWrites = 1
	}
	rng := stats.NewRNG(seed)
	n := c.Scheme().LogicalLines()
	r := runState{c: c, max: maxWrites}
	for !r.done() {
		// One hammer stint through WriteRun (exact: truncates at first
		// failure and at the budget, like the per-write loop it replaces).
		// The RNG draw sequence is unchanged: one draw per stint.
		r.writeRun(rng.Uint64n(n), content, hammerWrites)
	}
	return r.res
}

// SweepPattern writes one line to every logical address: ALL-0 where bit
// `bit` of the address is 0, ALL-1 where it is 1 — Step 4 of the RTA
// against RBSG and Step 3 against Security Refresh. It returns the demand
// writes issued and the observed time.
func SweepPattern(t Target, lines uint64, bit uint) (writes, ns uint64) {
	for la := uint64(0); la < lines; la++ {
		ns += t.Write(la, patternOf(la, bit))
		writes++
	}
	return writes, ns
}

// SweepZeros writes ALL-0 to every logical address — Step 1 of both RTA
// variants.
func SweepZeros(t Target, lines uint64) (writes, ns uint64) {
	for la := uint64(0); la < lines; la++ {
		ns += t.Write(la, pcm.Zeros)
		writes++
	}
	return writes, ns
}
