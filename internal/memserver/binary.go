package memserver

import (
	"context"
	"net"
	"sync"

	"securityrbsg/internal/pcm"
)

// The data plane: the batch engine behind the length-prefixed binary
// wire protocol (wire.go) on the shared connection server (conn.go).
// Each connection's handler decodes a frame into its batch scratch,
// runs it through executeBatch and encodes the answer, all in Begin on
// the reader goroutine, so at most one frame per connection is ever
// admitted to the banks. A full bank answers a Nack frame carrying the
// retry-after seconds and the partial accounting; draining answers a
// typed Err frame. Per-op simulated latencies travel in the response
// verbatim, so the timing side channel crosses the wire intact.

// BatchOp is one operation of a batch frame. The zero op is a write of
// ALL-0; set Read for a read, Data for the content class (the
// pcm.Content integers: 0 = ALL-0, a RESET write; 1 = ALL-1, a SET
// write; 2 = MIXED).
type BatchOp struct {
	Line uint64
	Read bool
	Data uint8
}

// BatchResponse answers a batch. Ns and Data align with the ops;
// rejected ops report zero latency. NsMax is the slowest op — the
// latency a stalled demand request would have observed behind
// remapping.
type BatchResponse struct {
	Applied  int
	Rejected int
	NsSum    uint64
	NsMax    uint64
	Ns       []uint64
	Data     []uint8
}

// Reset empties r for a batch of n ops: zero accounting and n zeroed
// Ns/Data slots, reusing r's capacity.
//
//rbsglint:hotpath
func (r *BatchResponse) Reset(n int) {
	r.Applied, r.Rejected, r.NsSum, r.NsMax = 0, 0, 0, 0
	r.Ns = resizeZeroed(r.Ns, n)
	r.Data = resizeZeroed(r.Data, n)
}

// ServeBinary accepts binary-protocol connections on ln until the
// listener closes (ShutdownBinary closes it, as does memctld on
// SIGTERM). It returns nil on a clean close, and at once, closing ln,
// when ShutdownBinary has already run.
func (s *Server) ServeBinary(ln net.Listener) error { return s.bin.Serve(ln) }

// ShutdownBinary stops the binary protocol: listeners close, each
// connection answers its in-flight frames and says goodbye with a
// draining Err frame, and every connection is waited for (or
// force-closed when ctx expires). Call it before Drain, like
// http.Server.Shutdown: the executors must still be running while
// in-flight frames finish.
func (s *Server) ShutdownBinary(ctx context.Context) error { return s.bin.Shutdown(ctx) }

// binConn is one binary connection's FrameHandler: the batch scratch
// every frame decodes, executes and collects in, and one encoded answer
// per slot.
type binConn struct {
	s   *Server
	sc  *batchScratch
	out [FrameWindow][]byte
}

func (s *Server) newBinConn() FrameHandler {
	return &binConn{s: s, sc: s.newBatchScratch()}
}

// Begin is the whole binary hot path minus the socket I/O:
// BenchmarkBinaryBatchWrite drives it directly. It always answers;
// fatal reports a frame refused because the server is draining.
//
//rbsglint:hotpath
func (c *binConn) Begin(slot int, body []byte) (out []byte, fatal bool) {
	s, sc := c.s, c.sc
	s.binFrames.Add(1)
	ops, code, msg := DecodeRequest(body, s.cfg.Lines, sc.ops)
	sc.ops = ops
	if code != 0 {
		s.binRejects.Add(1)
		c.out[slot] = ErrFrame(c.out[slot], code, msg)
		return c.out[slot], false
	}
	draining := s.executeBatch(sc)
	resetRuns(sc) // the scratch lives as long as the connection
	resp := &sc.resp
	s.binLineOps.Add(uint64(resp.Applied))
	if resp.Applied == 0 && draining {
		c.out[slot] = ErrFrame(c.out[slot], WireErrDraining, "server draining")
		return c.out[slot], true
	}
	c.out[slot] = RespFrame(c.out[slot], resp, resp.Rejected > 0, NackRetryAfterSecs)
	return c.out[slot], false
}

// Finish returns the slot's answer, which Begin has always composed.
func (c *binConn) Finish(slot int) []byte { return c.out[slot] }

// batchScratch is one batch's execution state: the validated ops, the
// per-bank coalescing runs (indexed by bank, `order` listing the banks
// touched this batch in first-touch order), one message per executor
// (indexed by executor), the batch's one completion and the response
// with its aligned arrays. A scratch serves one batch at a time; each
// binary connection keeps one for its lifetime.
type batchScratch struct {
	ops   []BatchOp
	runs  []bankRun
	order []int
	sends []execBatch
	done  sync.WaitGroup
	resp  BatchResponse
}

func (s *Server) newBatchScratch() *batchScratch {
	sc := &batchScratch{runs: make([]bankRun, len(s.banks)), sends: make([]execBatch, len(s.execs))}
	for e := range sc.sends {
		sc.sends[e].done = &sc.done
	}
	for b := range sc.runs {
		sc.runs[b].bank = s.banks[b]
		sc.runs[b].msg = &sc.sends[s.owner(b)]
	}
	return sc
}

// bankRun is one bank's slice of a batch: its ops, each op's position
// in the batch, and the executor's results, plus the bank and the
// message of its executor, fixed when the scratch is built. Runs are
// embedded in the batch scratch, and their backing arrays are reused
// across batches.
type bankRun struct {
	bank *bankState
	msg  *execBatch
	ops  []op
	idx  []int
	res  []opResult
}

// resetRuns clears the per-bank runs and the messages of the last batch
// so the scratch can host another one.
//
//rbsglint:hotpath
func resetRuns(sc *batchScratch) {
	for _, b := range sc.order {
		run := &sc.runs[b]
		run.ops = run.ops[:0]
		run.idx = run.idx[:0]
	}
	sc.order = sc.order[:0]
	for e := range sc.sends {
		sc.sends[e].runs = sc.sends[e].runs[:0]
	}
}

// executeBatch is the batch engine: coalesce the already-validated ops
// in sc.ops into one run per touched bank (preserving request order),
// admit each run whole or refuse it whole, send every executor that
// owns an admitted run one message carrying all of them, wait once,
// then scatter the results into sc.resp, whose Ns/Data align with the
// ops (refused ops report zero). It reports whether the server was
// draining, which refuses every run.
//
//rbsglint:hotpath
func (s *Server) executeBatch(sc *batchScratch) (draining bool) {
	ops := sc.ops
	for i, o := range ops {
		bank, local := s.mem.Route(o.Line)
		run := &sc.runs[bank]
		if len(run.idx) == 0 {
			sc.order = append(sc.order, bank)
		}
		run.ops = append(run.ops, op{local: local, read: o.Read, content: pcm.Content(o.Data)})
		run.idx = append(run.idx, i)
	}

	// sc.done counts messages: Add precedes every send, and this batch's
	// Wait precedes the next batch's Add. No send blocks: New sizes each
	// executor queue so that admission is the only refusal.
	resp := &sc.resp
	resp.Reset(len(ops))
	draining = s.draining.Load()
	depth := int64(s.cfg.QueueDepth)
	for _, b := range sc.order {
		run := &sc.runs[b]
		if draining || !run.bank.admit(depth) {
			run.res = run.res[:0] // nothing applied
			resp.Rejected += len(run.ops)
			continue
		}
		run.msg.runs = append(run.msg.runs, run)
	}
	for e := range sc.sends {
		if m := &sc.sends[e]; len(m.runs) > 0 {
			sc.done.Add(1)
			s.execs[e].ch <- m
		}
	}
	sc.done.Wait()
	for _, b := range sc.order {
		run := &sc.runs[b]
		for j, res := range run.res {
			i := run.idx[j]
			resp.Ns[i] = res.ns
			resp.Data[i] = uint8(res.content)
			resp.NsSum += res.ns
			if res.ns > resp.NsMax {
				resp.NsMax = res.ns
			}
		}
		resp.Applied += len(run.res)
	}
	return draining
}
