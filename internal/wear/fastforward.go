package wear

import "securityrbsg/internal/pcm"

// FastForwarder is the optional scheme capability behind the exact-tier
// acceleration (Controller.WriteRun and internal/exactsim): a scheme that
// can tell, in closed form, how long its mappings stay frozen under a
// fixed write stream, and book that many writes at once.
//
// The contract is exact, not approximate. For a demand-write stream
// pinned to logical address la:
//
//   - Epoch(la) returns pa == Translate(la) and k ≥ 1 such that the next
//     k−1 writes to la provably trigger no remapping movements and change
//     no scheme register that affects Translate, while the k-th write is
//     the first that may trigger movements.
//   - Advance(la, j, m), with 1 ≤ j ≤ k, books j writes to la exactly as
//     j calls to NoteWrite(la, m) would: when j == k the j-th write's
//     movements run through m and their latency is returned, otherwise
//     nothing moves and it returns 0. Implementations panic when j would
//     run past the epoch. Every implementor's NoteWrite is Advance(la, 1,
//     m), so the write-by-write and the batched path share one booking.
//
// Between remap events the translation is frozen, which is what makes
// the closed form possible: the epoch's k writes to la land on the same
// physical line pa, with constant device latency, so they can be applied
// in bulk (pcm.Bank.WriteN) without losing a bit of the timing side
// channel — the only anomalous (movement-carrying) write of the epoch is
// its last, whose movements Advance runs and whose latency WriteRun
// reports individually.
//
// Every exact-tier scheme implements it: internal/exactsim's
// differentials require it of each registered exact scheme, because a
// scheme without it runs WriteRun's write-by-write loop.
type FastForwarder interface {
	Epoch(la uint64) (pa, k uint64)
	Advance(la, k uint64, m Mover) uint64
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
// run is accelerated to two scheme calls per inter-remap epoch: Epoch
// names the line and the epoch's length, one pcm.Bank.WriteN applies the
// epoch's writes (its firing write included), and Advance books them and
// runs the firing write's movements. Wear array, device clock, failure
// record, scheme state and the sequence of onEvent callbacks are
// bit-identical to the naive loop (the differential tests in
// internal/exactsim assert this). Otherwise the naive loop runs.
func (c *Controller) WriteRun(la uint64, content pcm.Content, n uint64, stopOnFail bool, onEvent func(i, ns uint64) bool) (issued, totalNs uint64) {
	base := c.TranslationNs + c.bank.Config().Timing.WriteNs(content)
	ff, ok := c.scheme.(FastForwarder)
	if !ok || c.TranslationNs != 0 {
		return c.writeRunNaive(la, content, n, base, stopOnFail, onEvent)
	}
	for issued < n {
		pa, k := ff.Epoch(la)
		if rem := n - issued; k > rem {
			k = rem
		}
		failedBefore := c.bank.Failed()
		if stopOnFail && !failedBefore {
			// No line has failed yet, so this one hasn't either: its
			// j-th write from now is the one that fails it.
			if j := c.bank.WritesToFailure(pa); j < k {
				k = j
			}
		}
		totalNs += c.bank.WriteN(pa, content, k)
		c.demandWrites += k
		issued += k
		// Only the epoch's last write can move anything, and a firing
		// write that also fails its line still runs its movements, as
		// in Write.
		if rns := ff.Advance(la, k, c.bank); rns > 0 {
			c.remapNs += rns
			c.remapEvents++
			totalNs += rns
			if onEvent != nil && !onEvent(issued-1, base+rns) {
				return issued, totalNs
			}
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
