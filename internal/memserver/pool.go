package memserver

import "sync"

// Serving-path buffer reuse. Everything that crosses the actor queues
// is pooled and recycled under a strict ownership rule:
//
//   - op slices are owned by the PRODUCER (the request's batch scratch):
//     actors read them but never free them, and the producer reuses its
//     scratch only after every submitted run has replied, so an actor
//     can never observe a recycled op slice.
//   - result buffers (resBuf) are allocated by the ACTOR from the pool
//     and freed by the CONSUMER once it has copied the latencies out.
//   - reply channels are taken from the pool by enqueue and returned by
//     whoever received the answer; each carries exactly one message per
//     use, so a pooled channel is always empty.
//
// All pools are package-level: sync.Pool is safe for concurrent use and
// none of the pooled objects carries bank state (bank isolation lives
// in the actors, not in these byte/slice carriers).

// resBuf carries one request's results from an actor to its consumer.
type resBuf struct {
	res []opResult
}

var resBufPool = sync.Pool{New: func() any { return new(resBuf) }}

// getResBuf returns a result buffer with length n.
func getResBuf(n int) *resBuf {
	rb := resBufPool.Get().(*resBuf)
	if cap(rb.res) < n {
		rb.res = make([]opResult, n)
	} else {
		rb.res = rb.res[:n]
	}
	return rb
}

func putResBuf(rb *resBuf) { resBufPool.Put(rb) }

var replyPool = sync.Pool{New: func() any { return make(chan *resBuf, 1) }}

func getReply() chan *resBuf  { return replyPool.Get().(chan *resBuf) }
func putReply(c chan *resBuf) { replyPool.Put(c) }

// batchScratch is one batch's execution state: the validated ops, the
// per-bank coalescing runs (indexed by bank, `order` listing the banks
// touched this batch in first-touch order) and the response with its
// aligned arrays. A binary connection keeps one for its lifetime; a
// JSON request makes its own.
type batchScratch struct {
	ops   []BatchOp
	runs  []bankRun
	order []int
	resp  BatchResponse
}

func newBatchScratch(banks int) *batchScratch {
	return &batchScratch{runs: make([]bankRun, banks)}
}

// resetRuns clears the per-bank runs touched by the last batch so the
// scratch can host another one.
//
//rbsglint:hotpath
func resetRuns(sc *batchScratch) {
	for _, b := range sc.order {
		run := &sc.runs[b]
		run.ops = run.ops[:0]
		run.idx = run.idx[:0]
		run.reply = nil
	}
	sc.order = sc.order[:0]
}
