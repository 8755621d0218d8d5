// Package exactsim is the exact-simulation acceleration layer that makes
// full-scale attack runs — 2²² logical lines at 10⁸ endurance — tractable
// without giving up a single bit of fidelity.
//
// Three mechanisms compose, each proven bit-identical to the naive
// write-by-write simulation by the differential tests in this package:
//
//   - Batched write runs. Between remapping movements a scheme's
//     translation is frozen, so a pinned write stream applies in bulk
//     (one pcm.Bank.WriteN + one wear.FastForwarder.Advance per epoch),
//     with the movements of the epoch's last write run by Advance and
//     its latency reported individually. This lives in
//     wear.Controller.WriteRun; the attacks use it through their
//     batch-aware helpers.
//
//   - Epoch fast-forward. The attack loops themselves advance their
//     shadow state in closed form per inter-movement epoch instead of per
//     write (see the timing attacks' engine in internal/attack), so the
//     per-write cost of the hot hammer phases collapses to the per-epoch
//     cost of the movement writes.
//
//   - Parallel sub-region sweep kernels, implemented here. RBSG's inner
//     Start-Gap regions are fully independent — a sweep over the logical
//     space routes each address into its statically fixed region — so the
//     regions shard across GOMAXPROCS workers, each owning a disjoint
//     pcm.Shard window of the bank. A rigorous no-failure precheck makes
//     the parallel execution exact (see Sweep); when the precheck cannot
//     prove safety the kernel declines and the caller falls back to the
//     naive loop.
//
// FastTarget is the attacker-facing composition: a wear.Controller
// wrapper implementing attack.Target, attack.BatchTarget and
// attack.SweepTarget.
package exactsim

import (
	"runtime"
	"sync"

	"securityrbsg/internal/pcm"
	"securityrbsg/internal/rbsg"
	"securityrbsg/internal/wear"
)

// FastTarget wraps a wear.Controller as an accelerated attack target.
// Write/Read/WriteRun pass through to the controller (WriteRun carries
// the batched fast path); Sweep adds the parallel sub-region kernel for
// *rbsg.Scheme targets. Every path is bit-identical to driving the
// controller write-by-write.
//
// A FastTarget is single-writer like the controller it wraps: the worker
// goroutines Sweep spawns live only inside one Sweep call and partition
// the bank into disjoint shards.
type FastTarget struct {
	ctrl    *wear.Controller
	rb      *rbsg.Scheme // non-nil iff the scheme supports parallel sweeps
	workers int

	// buckets holds the logical space counting-sorted by static region:
	// entries [r·n′, (r+1)·n′) are region r's logical addresses in
	// ascending order — exactly the order a naive ascending sweep issues
	// them to that region. Built once; the randomizer never rekeys.
	buckets []uint32
}

// NewFastTarget wraps c. workers caps Sweep's parallelism (<= 0 means
// GOMAXPROCS). Schemes other than *rbsg.Scheme still get the batched
// WriteRun path; Sweep then declines and callers run their naive loops.
func NewFastTarget(c *wear.Controller, workers int) *FastTarget {
	t := &FastTarget{ctrl: c, workers: workers}
	if workers <= 0 {
		t.workers = runtime.GOMAXPROCS(0)
	}
	// The bucket index stores addresses as uint32 (4 bytes/line instead
	// of 8 at full scale); larger spaces would need a wider index.
	if rb, ok := c.Scheme().(*rbsg.Scheme); ok && rb.LogicalLines() <= 1<<32 {
		t.rb = rb
	}
	return t
}

// Controller returns the wrapped controller.
func (t *FastTarget) Controller() *wear.Controller { return t.ctrl }

// Write implements attack.Target.
//
//rbsglint:hotpath
func (t *FastTarget) Write(la uint64, content pcm.Content) uint64 {
	return t.ctrl.Write(la, content)
}

// Read implements attack.Target.
//
//rbsglint:hotpath
func (t *FastTarget) Read(la uint64) (pcm.Content, uint64) {
	return t.ctrl.Read(la)
}

// WriteRun implements attack.BatchTarget via the controller's batched
// fast path.
//
//rbsglint:hotpath
func (t *FastTarget) WriteRun(la uint64, content pcm.Content, n uint64, stopOnFail bool, onEvent func(i, ns uint64) bool) (issued, totalNs uint64) {
	return t.ctrl.WriteRun(la, content, n, stopOnFail, onEvent)
}

// ensureBuckets builds the per-region address index. O(N), once per
// FastTarget.
func (t *FastTarget) ensureBuckets() {
	if t.buckets != nil {
		return
	}
	n := t.rb.LogicalLines()
	per := t.rb.LinesPerRegion()
	regions := n / per
	next := make([]uint64, regions)
	for r := range next {
		// The randomizer is a bijection: every region owns exactly n′
		// addresses, so the buckets tile the index back-to-back.
		next[r] = uint64(r) * per
	}
	t.buckets = make([]uint32, n)
	for la := uint64(0); la < n; la++ {
		r := t.rb.Intermediate(la) / per
		t.buckets[next[r]] = uint32(la)
		next[r]++
	}
}

// sweepContent is the attack's sweep pattern: ALL-0, or keyed by address
// bit when bit >= 0 (mirrors attack.SweepPattern / attack.SweepZeros).
func sweepContent(la uint64, bit int) pcm.Content {
	if bit >= 0 && la>>uint(bit)&1 == 1 {
		return pcm.Ones
	}
	return pcm.Zeros
}

// Sweep implements attack.SweepTarget: one full ascending pass over the
// logical space, executed as parallel per-region kernels. It returns
// ok=false — nothing issued, run the naive loop — unless it can prove
// the parallel run is bit-identical to the naive one:
//
//   - The scheme must be *rbsg.Scheme with zero translation latency.
//     Start-Gap regions are then fully independent: a region's demand
//     writes and gap movements touch only its own physical window, and
//     the sweep routes each region exactly n′ writes in a fixed order.
//
//   - No line may fail mid-sweep; otherwise failure times would depend
//     on the global interleaving, which the parallel run does not
//     preserve. A region fires at most m = ⌊(c₀+n′)/ψ⌋ movements during
//     its n′ sweep writes (c₀ its current interval phase). Between
//     consecutive movements the region's translation is frozen and
//     injective, so a physical slot receives at most one demand write
//     per sub-epoch — at most m+1 in total — plus at most m movement
//     writes: added wear ≤ 2m+1 per line. If even the currently
//     most-worn line is at least 2·mMax+2 writes under the bank's
//     endurance, no line can fail, and every observable — wear
//     array, content, device clock, scheme registers, controller books,
//     total latency — is independent of worker count and interleaving.
//
// With no failure possible and each worker confined to a disjoint
// pcm.Shard window, the per-worker counters merge commutatively, which
// is what makes the result deterministic regardless of scheduling.
//
// Sweep itself is the orchestrator, not the kernel: its prologue
// allocates worker state once per full-space pass (amortized over
// LogicalLines() writes), so the //rbsglint:hotpath contract applies to
// sweepWorker, which does the per-line work.
func (t *FastTarget) Sweep(bit int) (writes, ns uint64, ok bool) {
	if t.rb == nil || t.ctrl.TranslationNs != 0 {
		return 0, 0, false
	}
	t.ensureBuckets()
	bank := t.ctrl.Bank()
	per := t.rb.LinesPerRegion()
	regions := t.rb.LogicalLines() / per
	psi := t.rb.Config().Interval

	var mMax uint64
	for r := uint64(0); r < regions; r++ {
		c0 := psi - t.rb.Region(int(r)).WritesToNextMove()
		if m := (c0 + per) / psi; m > mMax {
			mMax = m
		}
	}
	if _, maxWear := bank.MaxWear(); maxWear+2*mMax+2 > bank.Config().Endurance {
		return 0, 0, false // a line could fail mid-sweep: stay exact, go naive
	}

	w := t.workers
	if w < 1 {
		w = 1
	}
	if uint64(w) > regions {
		w = int(regions)
	}
	shards := make([]*pcm.Shard, w)
	events := make([]uint64, w)
	moveNs := make([]uint64, w)
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		rLo := regions * uint64(i) / uint64(w)
		rHi := regions * uint64(i+1) / uint64(w)
		shards[i] = bank.Shard(rLo*(per+1), rHi*(per+1))
		wg.Add(1)
		//rbsglint:allow bankisolation -- each worker owns the disjoint pcm.Shard window covering regions [rLo,rHi) and mutates only those regions' state; the single-writer-per-state contract holds per shard, and the no-failure precheck above makes the merged result interleaving-independent
		go t.sweepWorker(&wg, shards[i], rLo, rHi, bit, &events[i], &moveNs[i])
	}
	wg.Wait()
	bank.MergeShards(shards...)

	var ev, mNs, total uint64
	for i := 0; i < w; i++ {
		ev += events[i]
		mNs += moveNs[i]
		total += shards[i].ElapsedNs()
	}
	t.ctrl.ApplyBulk(t.rb.LogicalLines(), ev, mNs)
	return t.rb.LogicalLines(), total, true
}

// sweepWorker executes the sweep's writes for regions [rLo, rHi), each
// region in the naive pass's ascending-address order, driving the bank
// exclusively through the worker's own shard. It counts movements in
// locals and stores them once: the workers' result slots are adjacent
// words of one array.
//
//rbsglint:hotpath
func (t *FastTarget) sweepWorker(wg *sync.WaitGroup, shard *pcm.Shard, rLo, rHi uint64, bit int, events, moveNs *uint64) {
	defer wg.Done()
	per := t.rb.LinesPerRegion()
	mask := per - 1 // per is a power of two: RBSG's lines are, and its regions divide them
	var ev, mNs uint64
	for r := rLo; r < rHi; r++ {
		reg := t.rb.Region(int(r))
		for _, la32 := range t.buckets[r*per : (r+1)*per] {
			la := uint64(la32)
			ia := t.rb.Intermediate(la)
			shard.Write(reg.Translate(ia&mask), sweepContent(la, bit))
			if ns := reg.Advance(1, shard); ns > 0 {
				ev++
				mNs += ns
			}
		}
	}
	*events, *moveNs = ev, mNs
}
