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

// bankReq is one queue entry: a run of ops for a single bank, executed
// in order. The actor owns *run from dequeue until it calls done.Done:
// it reads run.ops, writes one result per op into run.res, calls Done
// and never touches the run again. The submitter owns the run at all
// other times, so the run's buffers are reused across batches without
// ever crossing the queue pooled.
type bankReq struct {
	run  *bankRun
	done *sync.WaitGroup
}

// BankSnapshot is the immutable telemetry record an actor publishes.
// Everything in it is computed by the bank's own goroutine, so readers
// never race with the scheme or the PCM model.
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

// actor is the single writer for one bank: exactly one goroutine runs
// run(), and only that goroutine touches ctrl, det, or the counters
// below (the atomics exist so snapshot readers need no lock).
//
// Telemetry has two cadences. The O(1) counters republish every
// snapEvery ops; the wear percentiles read every physical line, so they
// refresh only every wearEvery = max(snapEvery, lines) ops, which keeps
// their cost O(1) amortized per op at any bank size. Both refresh at
// start-up and on drain, so post-drain metrics are exact.
type actor struct {
	bank      int
	ctrl      *wear.Controller
	det       *detector.AdaptiveRBSG
	adaptive  *seclevel.Adaptive
	ch        chan bankReq
	done      chan struct{}
	snapEvery uint64
	wearEvery uint64

	setWrites   uint64 // actor-private running split
	resetWrites uint64
	wearSel     wearSelect    // percentile scratch, actor-private
	rejected    atomic.Uint64 // written by submitters, not the actor
	snap        atomic.Pointer[BankSnapshot]
}

func newActor(bank int, ctrl *wear.Controller, det *detector.AdaptiveRBSG, adaptive *seclevel.Adaptive, depth int, snapEvery uint64) *actor {
	a := &actor{
		bank: bank, ctrl: ctrl, det: det, adaptive: adaptive,
		ch:        make(chan bankReq, depth),
		done:      make(chan struct{}),
		snapEvery: snapEvery,
		wearEvery: max(snapEvery, ctrl.Bank().Lines()),
	}
	a.publish(true)
	return a
}

// run is the actor loop: drain the queue until it closes, republishing
// telemetry on the two cadences described at actor and once more, in
// full, on exit.
//
//rbsglint:hotpath
func (a *actor) run() {
	defer close(a.done)
	defer a.publish(true)
	var sinceSnap, sinceWear uint64
	for req := range a.ch {
		run := req.run
		n := len(run.ops)
		if cap(run.res) < n {
			run.res = make([]opResult, n)
		}
		res := run.res[:n]
		for i, o := range run.ops {
			if o.read {
				c, ns := a.ctrl.Read(o.local)
				res[i] = opResult{ns: ns, content: c}
			} else {
				ns := a.ctrl.Write(o.local, o.content)
				res[i] = opResult{ns: ns}
				if o.content == pcm.Zeros {
					a.resetWrites++
				} else {
					a.setWrites++
				}
			}
		}
		run.res = res
		req.done.Done() // the run is the submitter's again
		sinceSnap += uint64(n)
		sinceWear += uint64(n)
		refreshWear := sinceWear >= a.wearEvery
		if refreshWear || sinceSnap >= a.snapEvery {
			a.publish(refreshWear)
			sinceSnap = 0
			if refreshWear {
				sinceWear = 0
			}
		}
	}
}

// publish computes a fresh snapshot and swaps it in. The wear
// percentiles are recomputed only when refreshWear is set; otherwise
// they carry over from the previous snapshot.
func (a *actor) publish(refreshWear bool) {
	//rbsglint:allow hotpathalloc -- one immutable snapshot per snapEvery ops (and once on drain); readers hold the previous pointer, so the atomic swap needs fresh memory
	s := &BankSnapshot{
		Bank:        a.bank,
		Stats:       a.ctrl.Stats(),
		SetWrites:   a.setWrites,
		ResetWrites: a.resetWrites,
	}
	if a.det != nil {
		s.Alarms = a.det.Alarms()
		s.BoostedMoves = a.det.BoostedMovements()
		for r := uint64(0); r < a.det.Config().Regions; r++ {
			if a.det.Alarmed(r) {
				s.AlarmedRegions++
			}
		}
	}
	if a.adaptive != nil {
		s.Alarms = a.adaptive.Monitor().Alarms()
		s.AlarmedRegions = int(a.adaptive.Monitor().AlarmedRegions())
		s.SecurityLevel = a.adaptive.Level()
		s.LevelRaises = a.adaptive.Controller().Raises()
		s.LevelLowers = a.adaptive.Controller().Lowers()
	}
	if refreshWear {
		// publish runs on the actor goroutine between ops, so it may read
		// the live wear array; the selection never writes it.
		s.WearP50, s.WearP90, s.WearP99 = a.wearSel.quantiles(a.ctrl.Bank().WearCounts(), uint32(s.Stats.MaxWear))
	} else {
		prev := a.snap.Load() // newActor's full publish makes this non-nil
		s.WearP50, s.WearP90, s.WearP99 = prev.WearP50, prev.WearP90, prev.WearP99
	}
	a.snap.Store(s)
}

// Snapshot returns the latest published telemetry (never nil).
func (a *actor) Snapshot() *BankSnapshot { return a.snap.Load() }
