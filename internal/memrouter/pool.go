package memrouter

import (
	"sync"
	"sync/atomic"
	"time"

	"securityrbsg/internal/memserver"
)

// Per-shard connection pools. Each pool owns a small, fixed set of
// binary-protocol connections to one memctld shard; each connection
// runs a sender goroutine and a receiver goroutine sharing one
// BinaryClient (whose send and receive halves are disjoint by
// contract), with up to `window` frames in flight between them. That
// pipelining is where the router's throughput comes from: many client
// frames multiplex onto few shard connections without waiting out a
// round trip per frame, and the shard answers strictly in order, so
// the inflight queue IS the correlation state — no request IDs on the
// wire.

// Job completion states.
const (
	jobOK     = iota // resp carries the sub-batch results
	jobNack          // shard backpressure; partial accounting decoded
	jobFailed        // transport or protocol loss; no trusted results
)

// shardJob is one shard sub-batch in flight. The ops slice aliases the
// owning frame's split plan — valid until done is signaled, after which
// only the response fields may be read.
type shardJob struct {
	ops       []memserver.BatchOp // shard-local ops
	resp      memserver.BatchResponse
	state     int
	retrySecs uint32
	done      chan struct{} // cap 1; one signal per dispatch
}

var jobPool = sync.Pool{New: func() any {
	return &shardJob{done: make(chan struct{}, 1)}
}}

func getJob() *shardJob {
	j := jobPool.Get().(*shardJob)
	j.ops = nil
	j.state = jobOK
	j.retrySecs = 0
	return j
}

func putJob(j *shardJob) { jobPool.Put(j) }

// fail marks the job lost and signals completion.
func (j *shardJob) fail() {
	j.state = jobFailed
	j.done <- struct{}{}
}

// shardPool is the per-shard connection set plus the shard's routing
// counters.
type shardPool struct {
	shard int
	addr  string
	jobs  chan *shardJob

	up    atomic.Int32  // live connections
	ops   atomic.Uint64 // line ops routed to this shard
	nacks atomic.Uint64 // sub-batches the shard Nacked
	errs  atomic.Uint64 // sub-batches lost to transport/protocol failure

	stop chan struct{}
	wg   sync.WaitGroup
}

// newShardPool starts conns connections to addr, each pipelining up to
// window frames.
func newShardPool(shard int, addr string, conns, window int) *shardPool {
	p := &shardPool{
		shard: shard,
		addr:  addr,
		jobs:  make(chan *shardJob, conns*window),
		stop:  make(chan struct{}),
	}
	for i := 0; i < conns; i++ {
		p.wg.Add(1)
		go p.connLoop(window)
	}
	return p
}

// enqueue offers a job without blocking: a full pool queue is router
// backpressure, surfaced to the client as a Nack exactly like a full
// bank queue on the shard itself.
func (p *shardPool) enqueue(j *shardJob) bool {
	select {
	case p.jobs <- j:
		return true
	default:
		return false
	}
}

// healthy reports whether any connection to the shard is live.
func (p *shardPool) healthy() bool { return p.up.Load() > 0 }

// close stops the pool. The frontend must already have drained: every
// dispatched job completes before its frame finishes, so by the time
// close runs the jobs queue is empty.
func (p *shardPool) close() {
	close(p.stop)
	p.wg.Wait()
}

// drainJobs fails every currently queued job. Called when the shard is
// unreachable so client frames waiting on it resolve into Nacks (and
// client retries) instead of hanging until the shard returns.
func (p *shardPool) drainJobs() {
	for {
		select {
		case j := <-p.jobs:
			p.errs.Add(1)
			j.fail()
		default:
			return
		}
	}
}

// connLoop keeps one connection slot filled: dial, run until the
// connection dies, back off, redial — so a restarted shard is picked
// back up without router intervention.
func (p *shardPool) connLoop(window int) {
	defer p.wg.Done()
	backoff := 50 * time.Millisecond
	for {
		select {
		case <-p.stop:
			return
		default:
		}
		bc, err := memserver.DialBinary(p.addr)
		if err != nil {
			if p.up.Load() == 0 {
				p.drainJobs()
			}
			select {
			case <-p.stop:
				return
			case <-time.After(backoff): //rbsglint:allow simdeterminism -- connection supervision, not simulation state
			}
			if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
			continue
		}
		backoff = 50 * time.Millisecond
		p.up.Add(1)
		p.runConn(bc, window)
		if p.up.Add(-1) == 0 {
			p.drainJobs()
		}
		bc.Close()
	}
}

// runConn is one connection's lifetime: the calling goroutine sends,
// a spawned goroutine receives, and the bounded inflight channel
// between them carries jobs in send order — which is response order,
// by the wire contract.
func (p *shardPool) runConn(bc *memserver.BinaryClient, window int) {
	inflight := make(chan *shardJob, window)
	dead := make(chan struct{})
	var once sync.Once
	kill := func() {
		once.Do(func() {
			close(dead)
			bc.Close() // wakes a blocked send or receive
		})
	}

	var recvWG sync.WaitGroup
	recvWG.Add(1)
	go func() {
		defer recvWG.Done()
		lost := false
		for j := range inflight {
			if lost {
				// The connection died mid-window: every later response
				// is gone with it.
				p.errs.Add(1)
				j.fail()
				continue
			}
			switch e := bc.RecvBatch(&j.resp).(type) {
			case nil:
				j.state = jobOK
			case *memserver.BackpressureError:
				if e.Resp == nil {
					j.state = jobFailed
					p.errs.Add(1)
				} else {
					j.state = jobNack
					j.retrySecs = uint32(e.RetryAfter / time.Second)
					p.nacks.Add(1)
				}
			case *memserver.WireError:
				// Protocol-level reject: the shard answered, the
				// connection survives, but the sub-batch did not land.
				j.state = jobFailed
				p.errs.Add(1)
			default:
				j.state = jobFailed
				p.errs.Add(1)
				lost = true
				kill()
			}
			j.done <- struct{}{}
		}
	}()

	for {
		var j *shardJob
		select {
		case <-p.stop:
			goto out
		case <-dead:
			goto out
		case j = <-p.jobs:
		}
		if err := bc.SendBatch(j.ops); err != nil {
			// Never entered inflight, so the receiver will not touch it.
			p.errs.Add(1)
			j.fail()
			kill()
			goto out
		}
		p.ops.Add(uint64(len(j.ops)))
		select {
		case inflight <- j:
		case <-dead:
			p.errs.Add(1)
			j.fail()
			goto out
		}
	}
out:
	close(inflight)
	recvWG.Wait()
}
