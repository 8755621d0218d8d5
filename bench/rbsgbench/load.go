package main

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// slices is how many equal parts the measured window is cut into. Each
// end-to-end serving metric is computed per slice and the median over
// slices is reported, so a few seconds of interference from outside
// the benchmark move the result less than a whole-window figure.
const slices = 10

// loadClock decides when a load's measured window begins and ends and
// where its slice boundaries fall. A timed load fixes them up front. A
// load with marks ends after a fixed amount of one connection's work
// instead: that connection records the time at which its answered ops
// reach each mark. The attack workload uses marks because its server
// state keeps changing as the hammer goes on, so comparable runs must
// stop at the same point of that evolution, not at the same second.
type loadClock struct {
	deadline time.Time // nothing is sent after it
	marks    []uint64  // answered-op counts of slice boundaries (nil: timed)
	bounds   [slices + 1]time.Time
	begun    atomic.Bool
	stop     atomic.Bool
}

func timedClock(start time.Time, warmup, window time.Duration) *loadClock {
	c := &loadClock{}
	for k := range c.bounds {
		c.bounds[k] = start.Add(warmup + window*time.Duration(k)/slices)
	}
	c.deadline = c.bounds[slices]
	return c
}

// markedClock ends the window once the marking connection has had
// warmupOps+windowOps ops answered; deadline bounds a stalled run.
func markedClock(warmupOps, windowOps uint64, deadline time.Time) *loadClock {
	c := &loadClock{deadline: deadline}
	for k := 0; k <= slices; k++ {
		c.marks = append(c.marks, warmupOps+windowOps*uint64(k)/slices)
	}
	return c
}

// measuring reports whether the window has begun at t.
func (c *loadClock) measuring(t time.Time) bool {
	if c.marks == nil {
		return !t.Before(c.bounds[0])
	}
	return c.begun.Load()
}

// stopped reports whether no more frames may be sent at t.
func (c *loadClock) stopped(t time.Time) bool {
	return c.stop.Load() || !t.Before(c.deadline)
}

// progress is called by the marking connection with its running count
// of answered ops.
func (c *loadClock) progress(answered uint64, t time.Time) {
	for k, m := range c.marks {
		if answered >= m && c.bounds[k].IsZero() {
			c.bounds[k] = t
			if k == 0 {
				c.begun.Store(true)
			}
			if k == slices {
				c.stop.Store(true)
			}
		}
	}
}

// slice returns which slice of the window t falls in, or -1. Only valid
// once the load has ended.
func (c *loadClock) slice(t time.Time) int {
	if c.bounds[slices].IsZero() || t.Before(c.bounds[0]) || !t.Before(c.bounds[slices]) {
		return -1
	}
	k := 0
	for !t.Before(c.bounds[k+1]) {
		k++
	}
	return k
}

// connPlan is one connection's share of the load: a closed loop keeping
// window frames of ops ops each in flight.
type connPlan struct {
	st     *stream
	ops    int // ops per frame
	window int // frames in flight
	// benign connections contribute latency samples and wait spans;
	// the attacker contributes only throughput.
	benign bool
	// marker connections drive a marked clock.
	marker bool
}

// frameTimeout is how long the driver waits for any one answer.
const frameTimeout = 30 * time.Second

// answered is one answered frame, kept so the window can be sliced once
// the load is over.
type answered struct {
	done    time.Time
	lat     float64 // µs from the send start; +Inf when the server refused ops
	applied uint32
	benign  bool // a latency sample: a benign frame sent inside the window
}

// connResult is what one connection measured.
type connResult struct {
	frames    []answered
	attempted uint64 // every op sent
	failed    uint64 // ops the server refused
	err       error
}

// pending is one frame in flight.
type pending struct {
	f         frame
	sent, put time.Time // send start, send end
	inWindow  bool      // sent after the window began
}

// driveConn runs one connection until the clock stops it and then
// drains it. All of a connection's work happens on one goroutine.
//
// Every load is a closed loop. An open loop (frames sent on a schedule)
// cannot be generated precisely here: on a 2-core Xeon VM a 400 µs
// time.Sleep overshoots by 665 µs at the median, so latency timed from
// each frame's due time would mostly measure the generator's own
// lateness.
func driveConn(addr string, p connPlan, clk *loadClock, rec *recorder, connSpan int32) (res connResult) {
	cn, err := dialWire(addr)
	if err != nil {
		res.err = err
		return
	}
	defer cn.Close()
	ring := make([]pending, p.window)
	var head, n int
	var resp response
	var answeredOps uint64
	sending := true
	for {
		t := now()
		if sending && clk.stopped(t) {
			sending = false
		}
		if sending && n < p.window {
			pf := &ring[(head+n)%p.window]
			p.st.fill(&pf.f, p.ops)
			pf.sent = t
			pf.inWindow = clk.measuring(t)
			if err := cn.send(pf.f.ops); err != nil {
				res.err = err
				return
			}
			pf.put = now()
			res.attempted += uint64(len(pf.f.ops))
			n++
			continue
		}
		if n == 0 {
			return
		}
		// A server that stops answering fails the run instead of hanging it.
		cn.c.SetReadDeadline(t.Add(frameTimeout))
		size, err := cn.waitResponse()
		if err != nil {
			res.err = fmt.Errorf("wait for frame %d: %w", ring[head].f.seq, err)
			return
		}
		first := now()
		if err := cn.recv(size, &resp); err != nil {
			res.err = err
			return
		}
		done := now()
		pf := &ring[head]
		failed, err := p.st.check(&pf.f, &resp)
		if err != nil {
			res.err = err
			return
		}
		res.failed += uint64(failed)
		a := answered{done: done, applied: uint32(len(pf.f.ops) - failed), benign: p.benign && pf.inWindow}
		if a.benign {
			a.lat = float64(done.Sub(pf.sent)) / 1e3
			if failed > 0 {
				a.lat = math.Inf(1) // a refused op misses any latency limit
			}
		}
		res.frames = append(res.frames, a)
		if p.marker {
			answeredOps += uint64(a.applied)
			clk.progress(answeredOps, done)
		}
		if rec != nil && pf.inWindow {
			fs := rec.add(connSpan, "frame", pf.sent, done)
			rec.add(fs, "wire.send", pf.sent, pf.put)
			rec.add(fs, "server.wait", pf.put, first)
			rec.add(fs, "wire.recv", first, done)
		}
		head = (head + 1) % p.window
		n--
	}
}
