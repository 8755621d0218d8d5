package wear

import "securityrbsg/internal/pcm"

// FastForwarder is the optional scheme capability behind the exact-tier
// acceleration (Controller.WriteRun and internal/exactsim): a scheme that
// can tell, in closed form, how long its mappings stay frozen under a
// fixed write stream.
//
// The contract is exact, not approximate. For a demand-write stream
// pinned to logical address la:
//
//   - WritesToNextRemap(la) returns k ≥ 1 such that the next k−1 writes
//     to la provably trigger no remapping movements (NoteWrite returns 0
//     and no scheme register that affects Translate changes), while the
//     k-th write is the first that may trigger movements.
//   - SkipWrites(la, k), with k < WritesToNextRemap(la), advances the
//     scheme's write counters exactly as k calls to NoteWrite(la, m)
//     would — implementations panic if k would cross a remap boundary.
//
// Between remap events the translation Translate(la) is frozen, which is
// what makes the closed form possible: k−1 writes to la are k−1 writes
// to the same physical line, with constant latency and no observable
// anomaly, so they can be applied in bulk (pcm.Bank.WriteN) without
// losing a bit of the timing side channel — every anomalous (movement-
// carrying) write is still executed individually.
//
// Every exact-tier scheme implements it: internal/exactsim's
// differentials require it of each registered exact scheme, because a
// scheme without it runs WriteRun's write-by-write loop.
type FastForwarder interface {
	WritesToNextRemap(la uint64) uint64
	SkipWrites(la, k uint64)
}

// WriteRun issues n consecutive demand writes of content to la, exactly
// equivalent to calling Write(la, content) n times, and returns how many
// writes were issued and their total observed latency.
//
// onEvent, when non-nil, is invoked for every write whose observed
// latency differs from the base latency of an unremarkable write
// (TranslationNs + device write time) — i.e. for exactly the writes an
// attacker would flag as anomalous. i is the 0-based index of the write
// within this run and ns its full observed latency. Returning false stops
// the run after that write.
//
// stopOnFail stops the run immediately after the write that records the
// bank's first line failure (issued then counts that write).
//
// When the scheme implements FastForwarder and TranslationNs is zero, the
// run is accelerated: each inter-remap epoch's movement-free prefix is
// applied with pcm.Bank.WriteN plus FastForwarder.SkipWrites, and only
// the epoch's firing write goes through the ordinary Write path. Wear
// array, device clock, failure record, scheme state and the sequence of
// onEvent callbacks are bit-identical to the naive loop (the differential
// tests in internal/exactsim assert this). Otherwise the naive loop runs.
func (c *Controller) WriteRun(la uint64, content pcm.Content, n uint64, stopOnFail bool, onEvent func(i, ns uint64) bool) (issued, totalNs uint64) {
	base := c.TranslationNs + c.bank.Config().Timing.WriteNs(content)
	ff, ok := c.scheme.(FastForwarder)
	if !ok || c.TranslationNs != 0 {
		return c.writeRunNaive(la, content, n, base, stopOnFail, onEvent)
	}
	for issued < n {
		k := ff.WritesToNextRemap(la)
		if batch := k - 1; batch > 0 {
			if rem := n - issued; batch > rem {
				batch = rem
			}
			pa := c.scheme.Translate(la)
			truncated := false
			if stopOnFail && !c.bank.Failed() {
				// No line has failed yet, so this one hasn't either: its
				// wear is ≤ its budget and j ≥ 1 more writes fail it.
				j := c.bank.LineEndurance(pa) + 1 - c.bank.Wear(pa)
				if j <= batch {
					batch = j
					truncated = true
				}
			}
			totalNs += c.bank.WriteN(pa, content, batch)
			c.demandWrites += batch
			ff.SkipWrites(la, batch)
			issued += batch
			if truncated {
				return issued, totalNs
			}
			if issued == n {
				return issued, totalNs
			}
		}
		// The epoch's firing write (and any remapping movements it
		// triggers) executes exactly through the ordinary path.
		failedBefore := c.bank.Failed()
		ns := c.Write(la, content)
		issued++
		totalNs += ns
		if ns != base && onEvent != nil && !onEvent(issued-1, ns) {
			return issued, totalNs
		}
		if stopOnFail && !failedBefore && c.bank.Failed() {
			return issued, totalNs
		}
	}
	return issued, totalNs
}

// writeRunNaive is the reference write-by-write loop WriteRun accelerates.
func (c *Controller) writeRunNaive(la uint64, content pcm.Content, n, base uint64, stopOnFail bool, onEvent func(i, ns uint64) bool) (issued, totalNs uint64) {
	for issued < n {
		failedBefore := c.bank.Failed()
		ns := c.Write(la, content)
		issued++
		totalNs += ns
		if ns != base && onEvent != nil && !onEvent(issued-1, ns) {
			return issued, totalNs
		}
		if stopOnFail && !failedBefore && c.bank.Failed() {
			return issued, totalNs
		}
	}
	return issued, totalNs
}

// ApplyBulk folds externally executed demand traffic into the
// controller's books: demandWrites demand writes, of which remapEvents
// triggered movements costing remapNs in total. It exists for the
// parallel sub-region kernels in internal/exactsim, which drive the bank
// through per-worker shards and replay the scheme's movements themselves;
// after merging the shards they call ApplyBulk so DemandWrites,
// RemapEvents, RemapNs and WriteOverhead read exactly as if the traffic
// had gone through Controller.Write.
func (c *Controller) ApplyBulk(demandWrites, remapEvents, remapNs uint64) {
	c.demandWrites += demandWrites
	c.remapEvents += remapEvents
	c.remapNs += remapNs
}
