package memrouter

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"securityrbsg/internal/memserver"
)

// The client-facing binary listener. The router speaks the exact
// memserver wire protocol — same frames, same version, same error
// codes — so every existing client (BinaryClient, loadgen, binprobe,
// the attack harness) points at a router instead of a shard and cannot
// tell the difference.
//
// Each client connection runs a reader and a writer goroutine with a
// bounded queue of in-flight frames between them: the reader decodes,
// splits, and dispatches frame i+1 to the shard pools while frame i is
// still waiting on shard responses, and the writer answers strictly in
// arrival order. A pipelined client therefore overlaps its window
// across the router AND the shards; a lockstep client just sees a
// normal request/response server.

// frontendState tracks listeners and live client connections so a
// drain can stop them gracefully (memserver's binaryState shape).
type frontendState struct {
	mu      sync.Mutex
	lns     []net.Listener
	conns   map[net.Conn]struct{}
	wg      sync.WaitGroup
	closing bool
}

// frameJob is one client frame in flight through the router: either a
// precomputed reject (out set, nothing dispatched) or a split batch
// waiting on its shard jobs. Pooled: a connection at window W keeps at
// most W+1 alive.
type frameJob struct {
	out      []byte // precomputed response frame (reject path); nil when routed
	fatal    bool   // close the connection after writing out
	read     bool
	total    int
	ops      []memserver.BatchOp // decode buffer (aliased by plan via split)
	plan     splitPlan
	jobs     []*shardJob // aligned with plan.touched; nil = enqueue refused
	outcomes []shardOutcome
	resp     memserver.BatchResponse
	buf      []byte // response encode buffer
}

var framePool = sync.Pool{New: func() any { return new(frameJob) }}

func getFrame() *frameJob {
	fj := framePool.Get().(*frameJob)
	fj.out = nil
	fj.fatal = false
	fj.read = false
	fj.total = 0
	fj.jobs = fj.jobs[:0]
	fj.outcomes = fj.outcomes[:0]
	return fj
}

// ServeBinary accepts client connections on ln until the listener
// closes. It returns nil on a clean close.
func (r *Router) ServeBinary(ln net.Listener) error {
	r.fe.mu.Lock()
	if r.fe.closing { // shut down before this listener got here
		r.fe.mu.Unlock()
		ln.Close()
		return nil
	}
	if r.fe.conns == nil {
		r.fe.conns = make(map[net.Conn]struct{})
	}
	r.fe.lns = append(r.fe.lns, ln)
	r.fe.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		if tc, ok := c.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		r.fe.mu.Lock()
		if r.fe.closing {
			r.fe.mu.Unlock()
			c.Close()
			continue
		}
		r.fe.conns[c] = struct{}{}
		r.fe.wg.Add(1)
		r.fe.mu.Unlock()
		go r.handleConn(c)
	}
}

// shutdownFrontend closes the listeners, wakes blocked readers, and
// waits for every connection's in-flight frames to answer (or ctx to
// expire, which force-closes).
func (r *Router) shutdownFrontend(ctx context.Context) error {
	r.fe.mu.Lock()
	r.fe.closing = true
	for _, ln := range r.fe.lns {
		ln.Close()
	}
	r.fe.lns = nil
	for c := range r.fe.conns {
		c.SetReadDeadline(time.Unix(0, 1)) //rbsglint:allow simdeterminism -- connection teardown plumbing, not simulation state
	}
	r.fe.mu.Unlock()

	done := make(chan struct{})
	go func() { r.fe.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		r.fe.mu.Lock()
		for c := range r.fe.conns {
			c.Close()
		}
		r.fe.mu.Unlock()
		return fmt.Errorf("memrouter: frontend shutdown: %w", ctx.Err())
	}
}

func (r *Router) frontendClosing() bool {
	r.fe.mu.Lock()
	defer r.fe.mu.Unlock()
	return r.fe.closing
}

// handleConn runs one client connection: this goroutine reads and
// dispatches, a second one completes and writes, the pending channel
// between them bounds the per-connection frame window.
func (r *Router) handleConn(c net.Conn) {
	defer func() {
		r.fe.mu.Lock()
		delete(r.fe.conns, c)
		r.fe.mu.Unlock()
		r.fe.wg.Done()
		c.Close()
	}()
	pending := make(chan *frameJob, r.cfg.FrontendWindow)
	var wwg sync.WaitGroup
	wwg.Add(1)
	go func() {
		defer wwg.Done()
		r.writeLoop(c, pending)
	}()
	r.readLoop(c, pending)
	close(pending)
	wwg.Wait()
}

// readLoop reads frames, routes them, and hands them to the writer in
// arrival order. It returns on any read error or fatal frame.
func (r *Router) readLoop(c net.Conn, pending chan<- *frameJob) {
	var hdr [4]byte
	var body []byte
	for {
		if err := readFull(c, hdr[:]); err != nil {
			if r.frontendClosing() {
				fj := getFrame()
				fj.out = r.errFrame(fj, memserver.WireErrDraining, "router draining")
				fj.fatal = true
				pending <- fj
			}
			return
		}
		n := binary.LittleEndian.Uint32(hdr[:])
		if n > memserver.WireMaxBody {
			r.rejects.Add(1)
			fj := getFrame()
			fj.out = r.errFrame(fj, memserver.WireErrTooLarge, "frame body over limit")
			fj.fatal = true
			pending <- fj
			return
		}
		if cap(body) < int(n) {
			body = make([]byte, n)
		}
		body = body[:n]
		if err := readFull(c, body); err != nil {
			return
		}
		fj := getFrame()
		fatal := r.routeFrame(fj, body)
		pending <- fj
		if fatal {
			return
		}
	}
}

// routeFrame decodes and validates one frame body and dispatches its
// shard jobs (or precomputes a reject). The returned flag closes the
// connection after the response goes out.
//
//rbsglint:hotpath
func (r *Router) routeFrame(fj *frameJob, body []byte) (fatal bool) {
	r.frames.Add(1)
	if len(body) < memserver.WireHdrSize {
		r.rejects.Add(1)
		fj.out = r.errFrame(fj, memserver.WireErrMalformed, "frame body under header size")
		return false
	}
	if body[0] != memserver.WireVersion {
		r.rejects.Add(1)
		fj.out = r.errFrame(fj, memserver.WireErrVersion, "router speaks version 1")
		return false
	}
	if r.draining.Load() {
		r.rejects.Add(1)
		fj.out = r.errFrame(fj, memserver.WireErrDraining, "router draining")
		return true
	}
	var code uint16
	switch body[1] {
	case memserver.WireFrameBatchReq:
		fj.ops, code = memserver.DecodeWireBatchReq(body[memserver.WireHdrSize:], fj.ops)
	case memserver.WireFrameReadReq:
		fj.read = true
		fj.ops, code = memserver.DecodeWireReadReq(body[memserver.WireHdrSize:], fj.ops)
	default:
		r.rejects.Add(1)
		fj.out = r.errFrame(fj, memserver.WireErrMalformed, "frame type not batch-req or read-req")
		return false
	}
	if code != 0 {
		r.rejects.Add(1)
		fj.out = r.errFrame(fj, code, "batch payload failed decode")
		return false
	}
	for _, o := range fj.ops {
		if o.Line >= r.m.lines || o.Data > 2 {
			r.rejects.Add(1)
			fj.out = r.errFrame(fj, memserver.WireErrBadOp, "op line out of space or content class not in {0,1,2}")
			return false
		}
	}
	fj.total = len(fj.ops)
	r.lineOps.Add(uint64(fj.total))
	if fj.read {
		r.readOps.Add(uint64(fj.total))
	}

	split(r.m, fj.ops, fj.read, &fj.plan)
	if len(fj.plan.touched) > 1 {
		r.splitFr.Add(1)
	}
	for _, s := range fj.plan.touched {
		b := &fj.plan.batches[s]
		j := getJob()
		j.read = fj.read
		j.ops = b.ops
		j.lines = b.lines
		if !r.pools[s].enqueue(j) {
			// Router-level backpressure: the pool's queue is full. The
			// job never dispatched, so complete it here as a Nack-shaped
			// failure the merger aggregates.
			putJob(j)
			fj.jobs = append(fj.jobs, nil)
			continue
		}
		fj.jobs = append(fj.jobs, j)
	}
	return false
}

// errFrame encodes a complete Err response frame into fj's buffer.
func (r *Router) errFrame(fj *frameJob, code uint16, msg string) []byte {
	buf := frameStart(fj)
	buf = memserver.AppendWireErr(buf, code, msg)
	return frameFinish(buf)
}

// frameStart reserves the length prefix in fj's encode buffer.
//
//rbsglint:hotpath
func frameStart(fj *frameJob) []byte {
	if cap(fj.buf) < 4 {
		fj.buf = make([]byte, 4)
	}
	return fj.buf[:4]
}

// frameFinish fills the reserved length prefix.
//
//rbsglint:hotpath
func frameFinish(buf []byte) []byte {
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(buf)-4))
	return buf
}

// writeLoop completes frames in arrival order and writes their
// responses. After a write error it keeps draining — shard jobs must
// still be collected so their state returns to the pools — but stops
// writing.
func (r *Router) writeLoop(c net.Conn, pending <-chan *frameJob) {
	dead := false
	for fj := range pending {
		out := fj.out
		if out == nil {
			out = r.completeFrame(fj)
		}
		if !dead {
			if _, err := c.Write(out); err != nil {
				dead = true
			}
		}
		if fj.fatal {
			dead = true
			c.Close() // unblocks the reader; remaining frames drain
		}
		fj.buf = out[:0]
		framePool.Put(fj)
	}
}

// completeFrame waits for a routed frame's shard jobs, merges them,
// and encodes the client response.
//
//rbsglint:hotpath
func (r *Router) completeFrame(fj *frameJob) []byte {
	for k, s := range fj.plan.touched {
		b := &fj.plan.batches[s]
		oc := shardOutcome{batch: b}
		if j := fj.jobs[k]; j == nil {
			oc.failed = true
			oc.retryAfterSecs = memserver.WireNackRetryAfterSecs
		} else {
			<-j.done
			switch j.state {
			case jobOK, jobNack:
				oc.nacked = j.state == jobNack
				oc.retryAfterSecs = j.retrySecs
				if fj.read {
					oc.rresp = &j.rresp
				} else {
					oc.resp = &j.resp
				}
			default:
				oc.failed = true
			}
		}
		fj.outcomes = append(fj.outcomes, oc)
	}
	nack, retry := merge(fj.outcomes, fj.total, &fj.resp)
	for _, j := range fj.jobs {
		if j != nil {
			putJob(j) // merge has copied everything out
		}
	}

	buf := frameStart(fj)
	switch {
	case nack && fj.read:
		r.nacks.Add(1)
		buf = memserver.AppendWireReadNack(buf, retry, &fj.resp)
	case nack:
		r.nacks.Add(1)
		buf = memserver.AppendWireNack(buf, retry, &fj.resp)
	case fj.read:
		buf = memserver.AppendWireReadResp(buf, &fj.resp)
	default:
		buf = memserver.AppendWireBatchResp(buf, &fj.resp)
	}
	return frameFinish(buf)
}

// readFull fills buf from c (io.ReadFull without the out-of-module
// call; c.Read is dynamic dispatch the hot-path contract trusts).
//
//rbsglint:hotpath
func readFull(c net.Conn, buf []byte) error {
	for len(buf) > 0 {
		n, err := c.Read(buf)
		buf = buf[n:]
		if err != nil {
			if len(buf) == 0 {
				return nil
			}
			return err
		}
	}
	return nil
}
