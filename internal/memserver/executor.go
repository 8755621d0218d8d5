package memserver

import (
	"sync"
	"sync/atomic"

	"securityrbsg/internal/detector"
	"securityrbsg/internal/pcm"
	"securityrbsg/internal/seclevel"
	"securityrbsg/internal/wear"
)

// op is one routed memory operation, already translated to a bank-local
// line by executeBatch.
type op struct {
	local   uint64
	read    bool
	content pcm.Content
}

// opResult carries the simulated latency and, for reads, the content.
type opResult struct {
	ns      uint64
	content pcm.Content
}

// BankSnapshot is the immutable telemetry record a bank's executor
// publishes. Everything in it is computed on that one goroutine, so
// readers never race with the scheme or the PCM model.
type BankSnapshot struct {
	Bank  int
	Stats wear.Stats
	// SET vs RESET demand-write split (the RTA side channel's two ends).
	SetWrites, ResetWrites uint64
	// Detector state (zero when the scheme has no detector).
	Alarms, BoostedMoves uint64
	AlarmedRegions       int
	// Adaptive security-level state (zero when the scheme has no level
	// controller): the DFN stage count currently in effect and the
	// controller's applied transition counts.
	SecurityLevel            int
	LevelRaises, LevelLowers uint64
	// Wear distribution percentiles over the bank's physical lines,
	// exact when computed but refreshed only every
	// max(Config.SnapshotEvery, lines per bank) ops, so between
	// refreshes they lag the other fields.
	WearP50, WearP90, WearP99 uint64
}

// bankState is one bank: its controller, scheme, detector and
// telemetry. Only the executor that owns the bank (see executor) runs
// its ops and publishes its snapshots, so only that goroutine touches
// ctrl, det, adaptive and the executor-private fields below. The
// atomics are the bank's shared face: submitters admit runs through
// queued and count refusals in rejected, and snapshot readers load
// snap.
//
// Telemetry has two cadences. The O(1) counters republish every
// snapEvery ops; the wear percentiles read every physical line, so they
// refresh only every wearEvery = max(snapEvery, lines) ops, which keeps
// their cost O(1) amortized per op at any bank size. Both refresh at
// start-up and on drain, so post-drain metrics are exact.
type bankState struct {
	id        int
	ctrl      *wear.Controller
	det       *detector.AdaptiveRBSG
	adaptive  *seclevel.Adaptive
	snapEvery uint64
	wearEvery uint64

	sinceSnap, sinceWear uint64 // executor-private: ops since the last publish and wear refresh
	setWrites            uint64 // executor-private running split
	resetWrites          uint64
	wearSel              wearSelect // percentile scratch, executor-private

	queued   atomic.Int64  // runs admitted and not yet started, at most Config.QueueDepth
	rejected atomic.Uint64 // runs refused at admission
	snap     atomic.Pointer[BankSnapshot]
}

func newBankState(id int, ctrl *wear.Controller, det *detector.AdaptiveRBSG, adaptive *seclevel.Adaptive, snapEvery uint64) *bankState {
	b := &bankState{
		id: id, ctrl: ctrl, det: det, adaptive: adaptive,
		snapEvery: snapEvery,
		wearEvery: max(snapEvery, ctrl.Bank().Lines()),
	}
	b.publish(true) // before any executor exists
	return b
}

// admit counts one more run against the bank's depth and reports
// whether it fit, counting a refusal in rejected. Submitters call it
// concurrently; the compare-and-swap never lets the count pass depth,
// not even for a moment, so a refusal always means the bank held depth
// runs not yet started.
//
//rbsglint:hotpath
func (b *bankState) admit(depth int64) bool {
	for {
		n := b.queued.Load()
		if n >= depth {
			b.rejected.Add(1)
			return false
		}
		if b.queued.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// execute starts an admitted run, which frees its place in the bank's
// depth, writes one result per op into run.res, and reports whether a
// snapshot has come due.
//
//rbsglint:hotpath
func (b *bankState) execute(run *bankRun) (due bool) {
	b.queued.Add(-1)
	n := len(run.ops)
	if cap(run.res) < n {
		run.res = make([]opResult, n)
	}
	res := run.res[:n]
	for i, o := range run.ops {
		if o.read {
			c, ns := b.ctrl.Read(o.local)
			res[i] = opResult{ns: ns, content: c}
		} else {
			ns := b.ctrl.Write(o.local, o.content)
			res[i] = opResult{ns: ns}
			if o.content == pcm.Zeros {
				b.resetWrites++
			} else {
				b.setWrites++
			}
		}
	}
	run.res = res
	b.sinceSnap += uint64(n)
	b.sinceWear += uint64(n)
	return b.sinceSnap >= b.snapEvery || b.sinceWear >= b.wearEvery
}

// publishDue publishes the snapshot execute reported due, refreshing
// the wear percentiles only when their own cadence has come around.
func (b *bankState) publishDue() {
	refreshWear := b.sinceWear >= b.wearEvery
	b.publish(refreshWear)
	b.sinceSnap = 0
	if refreshWear {
		b.sinceWear = 0
	}
}

// publish computes a fresh snapshot and swaps it in. The wear
// percentiles are recomputed only when refreshWear is set; otherwise
// they carry over from the previous snapshot.
func (b *bankState) publish(refreshWear bool) {
	//rbsglint:allow hotpathalloc -- one immutable snapshot per snapEvery ops (and once on drain); readers hold the previous pointer, so the atomic swap needs fresh memory
	s := &BankSnapshot{
		Bank:        b.id,
		Stats:       b.ctrl.Stats(),
		SetWrites:   b.setWrites,
		ResetWrites: b.resetWrites,
	}
	if b.det != nil {
		s.Alarms = b.det.Alarms()
		s.BoostedMoves = b.det.BoostedMovements()
		for r := uint64(0); r < b.det.Config().Regions; r++ {
			if b.det.Alarmed(r) {
				s.AlarmedRegions++
			}
		}
	}
	if b.adaptive != nil {
		s.Alarms = b.adaptive.Monitor().Alarms()
		s.AlarmedRegions = int(b.adaptive.Monitor().AlarmedRegions())
		s.SecurityLevel = b.adaptive.Level()
		s.LevelRaises = b.adaptive.Controller().Raises()
		s.LevelLowers = b.adaptive.Controller().Lowers()
	}
	if refreshWear {
		// publish runs on the bank's executor between runs, so it may
		// read the live wear array; the selection never writes it.
		s.WearP50, s.WearP90, s.WearP99 = b.wearSel.quantiles(b.ctrl.Bank().WearCounts(), uint32(s.Stats.MaxWear))
	} else {
		prev := b.snap.Load() // newBankState's full publish makes this non-nil
		s.WearP50, s.WearP90, s.WearP99 = prev.WearP50, prev.WearP90, prev.WearP99
	}
	b.snap.Store(s)
}

// Snapshot returns the latest published telemetry (never nil).
func (b *bankState) Snapshot() *BankSnapshot { return b.snap.Load() }

// executor is the one goroutine that runs a fixed set of banks. The
// server starts W = min(GOMAXPROCS at New, Banks) of them, and
// executor i owns bank b for every b ≡ i (mod W) for the server's whole
// lifetime (Server.owner). A batch sends each executor it touches one
// message carrying every run it admitted for that executor's banks.
type executor struct {
	banks []*bankState    // the banks it owns
	ch    chan *execBatch // see New for its capacity
	due   []*bankState    // executor-private: banks whose snapshot came due in the current message
	done  chan struct{}
}

// execBatch is one batch's message to one executor: the runs the batch
// admitted for the executor's banks, at most one per bank, in
// first-touch order. The executor owns the message and its runs from
// dequeue until it calls done.Done: it reads each run's ops, writes one
// result per op into the run, calls Done and never touches them again.
// The submitter owns them at all other times, so the batch scratch
// they live in is reused across batches without ever crossing the
// queue pooled.
type execBatch struct {
	runs []*bankRun
	done *sync.WaitGroup
}

// run is the executor loop: take messages until the queue closes,
// running each message's runs in order, and publish a bank's snapshot
// only after the message's Done, so no refresh sits inside a batch's
// latency. On exit every owned bank publishes once more, in full.
//
//rbsglint:hotpath
func (e *executor) run() {
	defer close(e.done)
	for m := range e.ch {
		for _, run := range m.runs {
			if run.bank.execute(run) {
				e.due = append(e.due, run.bank)
			}
		}
		m.done.Done() // the runs are the submitter's again
		for _, b := range e.due {
			b.publishDue()
		}
		e.due = e.due[:0]
	}
	for _, b := range e.banks {
		b.publish(true)
	}
}
