package memserver

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// The one binary-wire connection server. memctld's binary listener and
// memrouterd's client listener both run on it and differ only in their
// FrameHandler.
//
// Each connection runs a reader and a writer goroutine joined by a
// bounded, in-order queue of FrameWindow frames. The reader reads a
// frame and begins it; the writer finishes frames strictly in arrival
// order and writes their answers. A pipelined client therefore overlaps
// its window with the server's work, and a lockstep client just sees a
// request/response server. The wire needs no request IDs: the answer
// order is the request order. A frame answered in Begin while nothing
// is queued or being written is written by the reader itself: order
// holds, and the frame skips the handoff to the writer, which costs a
// goroutine wake-up per frame (serve_attack_large lost up to 31% of its
// throughput to it; DESIGN.md "Binary wire protocol").

// FrameWindow bounds the frames one connection has begun but not yet
// answered: the length of the queue between its reader and its writer,
// and the number of slots a FrameHandler keeps.
const FrameWindow = 32

// FrameHandler is one connection's frame logic, driven by ConnServer in
// two phases. Begin runs on the reader goroutine for every frame, in
// arrival order, with the frame body (reused once Begin returns) and
// the slot in [0, FrameWindow) that holds the frame until it is
// answered. It returns the complete response frame when it has one, or
// nil to leave the answer to Finish, which then runs on the writer
// goroutine in the same arrival order. fatal closes the connection once
// the answer is written. A slot and its buffers are not begun again
// until its answer has been written.
type FrameHandler interface {
	Begin(slot int, body []byte) (out []byte, fatal bool)
	Finish(slot int) []byte
}

// ConnServer accepts binary-wire connections and runs a FrameHandler on
// each. Shutdown stops it gracefully.
type ConnServer struct {
	newHandler func() FrameHandler
	rejects    *atomic.Uint64
	goodbye    []byte // Err draining frame for connections shutdown ends

	mu      sync.Mutex
	lns     []net.Listener
	conns   map[net.Conn]struct{}
	wg      sync.WaitGroup
	closing bool
}

// tooLarge answers an oversized length prefix, the one reject that
// costs the connection.
var tooLarge = ErrFrame(nil, WireErrTooLarge, "frame body over limit")

// NewConnServer returns a server that runs a fresh newHandler() on every
// connection it accepts. rejects counts the frames refused before any
// handler saw them (oversized ones), and goodbye is the detail line of
// the draining Err a connection gets when shutdown ends it.
func NewConnServer(newHandler func() FrameHandler, rejects *atomic.Uint64, goodbye string) *ConnServer {
	return &ConnServer{
		newHandler: newHandler,
		rejects:    rejects,
		goodbye:    ErrFrame(nil, WireErrDraining, goodbye),
		conns:      make(map[net.Conn]struct{}),
	}
}

// Serve accepts connections on ln until the listener closes; it returns
// nil on a clean close. Called after Shutdown, it closes ln and returns
// at once.
func (cs *ConnServer) Serve(ln net.Listener) error {
	cs.mu.Lock()
	if cs.closing {
		cs.mu.Unlock()
		ln.Close()
		return nil
	}
	cs.lns = append(cs.lns, ln)
	cs.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		cs.mu.Lock()
		if cs.closing {
			cs.mu.Unlock()
			c.Close()
			continue
		}
		cs.conns[c] = struct{}{}
		cs.wg.Add(1)
		cs.mu.Unlock()
		go cs.serveConn(c)
	}
}

// Shutdown closes the listeners, wakes every blocked reader with an
// immediate deadline so its connection can answer in-flight frames and
// say goodbye, and waits for every connection to end (or force-closes
// them when ctx expires). Whatever the handlers need must keep running
// until it returns.
func (cs *ConnServer) Shutdown(ctx context.Context) error {
	cs.mu.Lock()
	cs.closing = true
	for _, ln := range cs.lns {
		ln.Close()
	}
	cs.lns = nil
	for c := range cs.conns {
		c.SetReadDeadline(time.Unix(0, 1)) //rbsglint:allow simdeterminism -- connection teardown plumbing, not simulation state
	}
	cs.mu.Unlock()

	done := make(chan struct{})
	go func() { cs.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		cs.mu.Lock()
		for c := range cs.conns {
			c.Close()
		}
		cs.mu.Unlock()
		return fmt.Errorf("memserver: connection shutdown: %w", ctx.Err())
	}
}

func (cs *ConnServer) isClosing() bool {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.closing
}

// queued is one frame between the reader and the writer: a handler slot
// to finish, or (out set) an answer composed already.
type queued struct {
	slot  int
	out   []byte
	fatal bool
}

// wireConn is one connection's frame plumbing: the queue to the writer
// and the slots frames hold until answered. The writer returns each slot
// once its answer is written; the reader takes the one returned last, so
// a connection touches only as many slots (and slot buffers) as it keeps
// frames in flight.
type wireConn struct {
	c       net.Conn
	h       FrameHandler
	pending chan queued // begun frames, in arrival order
	free    chan int    // written slots, in write order
	stack   []int       // reader-owned free slots, the most recently freed on top
}

// serveConn runs one connection. Setup and teardown may allocate; the
// per-frame path (readLoop, writeLoop) must not.
func (cs *ConnServer) serveConn(c net.Conn) {
	defer func() {
		cs.mu.Lock()
		delete(cs.conns, c)
		cs.mu.Unlock()
		cs.wg.Done()
		c.Close()
	}()
	wc := &wireConn{
		c: c, h: cs.newHandler(),
		pending: make(chan queued, FrameWindow),
		free:    make(chan int, FrameWindow),
		stack:   make([]int, 0, FrameWindow),
	}
	for slot := FrameWindow - 1; slot >= 0; slot-- {
		wc.stack = append(wc.stack, slot)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		wc.writeLoop()
	}()
	cs.readLoop(wc)
	close(wc.pending)
	<-done
}

// readLoop reads frames and begins them, each in a free slot, until a
// read fails or a frame is fatal.
//
//rbsglint:hotpath
func (cs *ConnServer) readLoop(wc *wireConn) {
	var hdr [4]byte
	var body []byte
	for {
		if err := readFull(wc.c, hdr[:]); err != nil {
			cs.hangUp(wc)
			return
		}
		n := binary.LittleEndian.Uint32(hdr[:])
		if n > WireMaxBody {
			cs.rejects.Add(1)
			wc.answer(wc.take(), tooLarge, true)
			return
		}
		if cap(body) < int(n) {
			body = make([]byte, n)
		}
		body = body[:n]
		if err := readFull(wc.c, body); err != nil {
			cs.hangUp(wc)
			return
		}
		slot := wc.take()
		if out, fatal := wc.h.Begin(slot, body); wc.answer(slot, out, fatal) {
			return
		}
	}
}

// hangUp ends a connection's read side. A reader woken by Shutdown
// says goodbye behind the frames still in flight; any other read error
// is the client hanging up.
func (cs *ConnServer) hangUp(wc *wireConn) {
	if cs.isClosing() {
		wc.answer(wc.take(), cs.goodbye, true)
	}
}

// answer sends the frame in slot on its way: to the writer, or — when
// the answer out is composed already and nothing is queued or being
// written — straight onto the connection, which keeps the order and
// spares the handoff. It reports whether the connection is done.
//
//rbsglint:hotpath
func (wc *wireConn) answer(slot int, out []byte, fatal bool) (done bool) {
	if out == nil || !wc.idle() {
		wc.pending <- queued{slot: slot, out: out, fatal: fatal}
		return fatal
	}
	_, err := wc.c.Write(out)
	wc.stack = append(wc.stack, slot)
	if err != nil || fatal {
		wc.c.Close()
		return true
	}
	return false
}

// take returns a free slot, waiting for the writer when all FrameWindow
// are in flight.
//
//rbsglint:hotpath
func (wc *wireConn) take() int {
	wc.reclaim()
	if len(wc.stack) == 0 {
		wc.stack = append(wc.stack, <-wc.free)
	}
	slot := wc.stack[len(wc.stack)-1]
	wc.stack = wc.stack[:len(wc.stack)-1]
	return slot
}

// idle reports whether the writer has written every frame but the one
// the reader holds.
//
//rbsglint:hotpath
func (wc *wireConn) idle() bool {
	wc.reclaim()
	return len(wc.stack) == FrameWindow-1
}

// reclaim moves the slots the writer has returned onto the stack.
//
//rbsglint:hotpath
func (wc *wireConn) reclaim() {
	for len(wc.free) > 0 {
		wc.stack = append(wc.stack, <-wc.free)
	}
}

// writeLoop finishes frames in arrival order and writes their answers.
// After a failed write or a fatal frame it closes the connection, which
// also stops the reader, but keeps finishing what is queued: a handler
// may hold resources until Finish.
//
//rbsglint:hotpath
func (wc *wireConn) writeLoop() {
	dead := false
	for q := range wc.pending {
		out := q.out
		if out == nil {
			out = wc.h.Finish(q.slot)
		}
		if !dead {
			_, err := wc.c.Write(out)
			if err != nil || q.fatal {
				dead = true
				wc.c.Close()
			}
		}
		wc.free <- q.slot
	}
}

// readFull fills buf from c (io.ReadFull without the out-of-module
// call: c.Read is dynamic dispatch the hot-path contract trusts).
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
