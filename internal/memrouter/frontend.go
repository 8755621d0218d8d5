package memrouter

import (
	"net"

	"securityrbsg/internal/memserver"
)

// The client-facing binary listener. The router speaks the exact
// memserver wire protocol — same frames, same version, same error
// codes, the same connection server and request decoder — so every
// existing client (BinaryClient, loadgen, binprobe, the attack harness)
// points at a router instead of a shard and cannot tell the difference.
//
// The router's FrameHandler splits and dispatches a frame to the shard
// pools in Begin, on the connection's reader goroutine, and merges the
// shard responses in Finish, on its writer. The reader can therefore
// dispatch frame i+1 while frame i still waits on its shards: a
// pipelined client overlaps its window across the router AND the
// shards.

// frameJob is one client frame in flight through the router: a split
// batch waiting on its shard jobs, or a reject Begin already answered
// from buf. A connection keeps one per slot.
type frameJob struct {
	ops      []memserver.BatchOp // decode buffer (aliased by plan via split)
	plan     splitPlan
	jobs     []*shardJob // aligned with plan.touched; nil = enqueue refused
	outcomes []shardOutcome
	resp     memserver.BatchResponse
	buf      []byte // response frame
}

// routerConn is one client connection's FrameHandler.
type routerConn struct {
	r      *Router
	frames [memserver.FrameWindow]frameJob
}

func (r *Router) newConn() memserver.FrameHandler { return &routerConn{r: r} }

// ServeBinary accepts client connections on ln until the listener
// closes. It returns nil on a clean close, and at once, closing ln,
// when Shutdown has already run.
func (r *Router) ServeBinary(ln net.Listener) error { return r.fe.Serve(ln) }

// Begin decodes and validates one frame body and dispatches its shard
// jobs, leaving the answer to Finish, or answers a reject at once. The
// returned flag closes the connection after the answer goes out.
//
//rbsglint:hotpath
func (c *routerConn) Begin(slot int, body []byte) (out []byte, fatal bool) {
	r, fj := c.r, &c.frames[slot]
	r.frames.Add(1)
	if r.draining.Load() {
		r.rejects.Add(1)
		fj.buf = memserver.ErrFrame(fj.buf, memserver.WireErrDraining, "router draining")
		return fj.buf, true
	}
	ops, code, msg := memserver.DecodeRequest(body, r.m.lines, fj.ops)
	fj.ops = ops
	if code != 0 {
		r.rejects.Add(1)
		fj.buf = memserver.ErrFrame(fj.buf, code, msg)
		return fj.buf, false
	}
	fj.jobs = fj.jobs[:0]
	r.lineOps.Add(uint64(len(ops)))

	split(r.m, fj.ops, &fj.plan)
	if len(fj.plan.touched) > 1 {
		r.splitFr.Add(1)
	}
	for _, s := range fj.plan.touched {
		j := getJob()
		j.ops = fj.plan.batches[s].ops
		if !r.pools[s].enqueue(j) {
			// Router-level backpressure: the pool's queue is full. The
			// job never dispatched, so complete it here as a Nack-shaped
			// failure the merger aggregates.
			putJob(j)
			j = nil
		}
		fj.jobs = append(fj.jobs, j)
	}
	return nil, false
}

// Finish waits for a routed frame's shard jobs, merges them, and
// encodes the client response.
//
//rbsglint:hotpath
func (c *routerConn) Finish(slot int) []byte {
	fj := &c.frames[slot]
	fj.outcomes = fj.outcomes[:0]
	for k, s := range fj.plan.touched {
		oc := shardOutcome{batch: &fj.plan.batches[s]}
		if j := fj.jobs[k]; j == nil {
			oc.failed = true
			oc.retryAfterSecs = memserver.NackRetryAfterSecs
		} else {
			<-j.done
			switch j.state {
			case jobOK, jobNack:
				oc.nacked = j.state == jobNack
				oc.retryAfterSecs = j.retrySecs
				oc.resp = &j.resp
			default:
				oc.failed = true
			}
		}
		fj.outcomes = append(fj.outcomes, oc)
	}
	nack, retry := merge(fj.outcomes, len(fj.ops), &fj.resp)
	for _, j := range fj.jobs {
		if j != nil {
			putJob(j) // merge has copied everything out
		}
	}
	if nack {
		c.r.nacks.Add(1)
	}
	fj.buf = memserver.RespFrame(fj.buf, &fj.resp, nack, retry)
	return fj.buf
}
