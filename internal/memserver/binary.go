package memserver

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// The binary listener: the same pooled batch engine as /v1/batch behind
// the length-prefixed wire protocol (wire.go) instead of HTTP+JSON.
// One goroutine per connection reads frames, decodes them zero-copy
// into the connection's pooled batch scratch, runs them through
// executeBatch (the identical coalesce/enqueue/collect core the JSON
// handler uses — banks cannot tell the protocols apart), and writes
// the response frame from the same scratch. Backpressure maps the JSON
// 429+Retry-After onto a Nack frame carrying the retry-after seconds
// and the partial accounting; draining maps 503 onto a typed Err
// frame. Per-op simulated latencies cross this wire exactly as they
// cross the JSON one, so the timing side channel is transport-neutral.

// binaryState tracks the listeners and live connections of the binary
// protocol so a drain can stop them gracefully.
type binaryState struct {
	mu      sync.Mutex
	lns     []net.Listener
	conns   map[net.Conn]struct{}
	wg      sync.WaitGroup
	closing bool
}

// connScratch is one connection's reusable frame state: the length
// prefix, the frame body buffer, and the pooled batch scratch that op
// decode, execution, and response encode all share.
type connScratch struct {
	hdr   [4]byte
	body  []byte
	batch *batchScratch
}

// ServeBinary accepts binary-protocol connections on ln until the
// listener closes (ShutdownBinary closes it, as does memctld on
// SIGTERM). It returns nil on a clean close.
func (s *Server) ServeBinary(ln net.Listener) error {
	s.bin.mu.Lock()
	if s.bin.closing { // shut down before this listener got here
		s.bin.mu.Unlock()
		ln.Close()
		return nil
	}
	if s.bin.conns == nil {
		s.bin.conns = make(map[net.Conn]struct{})
	}
	s.bin.lns = append(s.bin.lns, ln)
	s.bin.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.bin.mu.Lock()
		if s.bin.closing {
			s.bin.mu.Unlock()
			c.Close()
			continue
		}
		s.bin.conns[c] = struct{}{}
		s.bin.wg.Add(1)
		s.bin.mu.Unlock()
		go s.handleBinaryConn(c)
	}
}

// ShutdownBinary stops the binary protocol: listeners close, blocked
// reads are woken by an immediate deadline so each connection can
// answer its client with a draining Err frame, and every connection
// goroutine is waited for (or force-closed when ctx expires). Call it
// before Drain, like http.Server.Shutdown: the actors must still be
// running while in-flight frames finish.
func (s *Server) ShutdownBinary(ctx context.Context) error {
	s.bin.mu.Lock()
	s.bin.closing = true
	for _, ln := range s.bin.lns {
		ln.Close()
	}
	s.bin.lns = nil
	for c := range s.bin.conns {
		// Wake the reader; the handler sees closing and says goodbye.
		c.SetReadDeadline(time.Unix(0, 1)) //rbsglint:allow simdeterminism -- connection teardown plumbing, not simulation state
	}
	s.bin.mu.Unlock()

	done := make(chan struct{})
	go func() { s.bin.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.bin.mu.Lock()
		for c := range s.bin.conns {
			c.Close()
		}
		s.bin.mu.Unlock()
		return fmt.Errorf("memserver: binary shutdown: %w", ctx.Err())
	}
}

// binaryClosing reports whether ShutdownBinary has begun.
func (s *Server) binaryClosing() bool {
	s.bin.mu.Lock()
	defer s.bin.mu.Unlock()
	return s.bin.closing
}

// handleBinaryConn is one connection's frame loop. Connection setup and
// teardown may allocate; the per-frame path (readFrame → processFrame →
// write) must not.
func (s *Server) handleBinaryConn(c net.Conn) {
	defer func() {
		s.bin.mu.Lock()
		delete(s.bin.conns, c)
		s.bin.mu.Unlock()
		s.bin.wg.Done()
		c.Close()
	}()
	sc := &connScratch{batch: getBatchScratch(s.cfg.Banks)}
	defer putBatchScratch(sc.batch)
	for {
		body, err := s.readFrame(c, sc)
		if err != nil {
			// A reader woken mid-drain gets told why before the
			// connection goes away; any other read error is the client
			// hanging up (or a hard reject that already answered).
			if s.binaryClosing() {
				c.Write(frameOut(sc.batch, appendErrBody(frameReserve(sc.batch), wireErrDraining, "server draining")))
			}
			return
		}
		out, fatal := s.processFrame(sc, body)
		if len(out) > 0 {
			if _, err := c.Write(out); err != nil {
				return
			}
		}
		if fatal {
			return
		}
	}
}

// readFrame reads one length-prefixed frame body into the connection's
// buffer. An oversized length prefix is a hard reject: the client is
// sent a typed Err frame, the caller gets errFrameTooLarge, and the
// connection closes (the server will not stream-skip an attacker-sized
// body to stay in frame sync).
//
//rbsglint:hotpath
func (s *Server) readFrame(c net.Conn, sc *connScratch) ([]byte, error) {
	if err := readFull(c, sc.hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(sc.hdr[:])
	if n > wireMaxBody {
		s.binRejects.Add(1)
		c.Write(frameOut(sc.batch, appendErrBody(frameReserve(sc.batch), wireErrTooLarge, "frame body over limit")))
		return nil, errFrameTooLarge
	}
	if cap(sc.body) < int(n) {
		sc.body = make([]byte, n)
	}
	sc.body = sc.body[:n]
	if err := readFull(c, sc.body); err != nil {
		return nil, err
	}
	return sc.body, nil
}

var errFrameTooLarge = fmt.Errorf("memserver: binary frame over size limit")

// processFrame decodes one frame body, executes it, and encodes the
// response frame into the connection scratch. fatal reports that the
// connection must close (the server is draining). This is the whole
// binary hot path minus the socket I/O — BenchmarkBinaryBatchWrite
// drives it directly.
//
//rbsglint:hotpath
func (s *Server) processFrame(sc *connScratch, body []byte) (out []byte, fatal bool) {
	s.binFrames.Add(1)
	b := sc.batch
	if len(body) < wireHdrSize {
		s.binRejects.Add(1)
		return frameOut(b, appendErrBody(frameReserve(b), wireErrMalformed, "frame body under header size")), false
	}
	if body[0] != wireVersion {
		// Version skew: the frame was length-delimited, so framing is
		// intact — answer with a typed Err and keep the connection.
		s.binRejects.Add(1)
		return frameOut(b, appendErrBody(frameReserve(b), wireErrVersion, "server speaks version 1")), false
	}
	var (
		ops  []BatchOp
		code uint16
	)
	read := false
	switch body[1] {
	case frameBatchReq:
		ops, code = decodeBatchReq(body[wireHdrSize:], b.req.Ops)
	case frameReadReq:
		// Streaming read-mostly mode: the reads run through the same
		// batch engine, only the response encoding is thinner.
		read = true
		ops, code = decodeReadReqOps(body[wireHdrSize:], b.req.Ops)
	default:
		s.binRejects.Add(1)
		return frameOut(b, appendErrBody(frameReserve(b), wireErrMalformed, "frame type not batch-req or read-req")), false
	}
	b.req.Ops = ops
	if code != 0 {
		s.binRejects.Add(1)
		return frameOut(b, appendErrBody(frameReserve(b), code, "batch payload failed decode")), false
	}
	for _, o := range ops {
		if o.Line >= s.cfg.Lines || o.Data > 2 {
			s.binRejects.Add(1)
			return frameOut(b, appendErrBody(frameReserve(b), wireErrBadOp, "op line out of space or content class not in {0,1,2}")), false
		}
	}

	draining := s.executeBatch(b)
	resetRuns(b) // the scratch lives as long as the connection
	resp := &b.resp
	s.binLineOps.Add(uint64(resp.Applied))
	if read {
		s.binReadOps.Add(uint64(resp.Applied))
	}
	switch {
	case resp.Applied == 0 && draining:
		return frameOut(b, appendErrBody(frameReserve(b), wireErrDraining, "server draining")), true
	case resp.Rejected > 0:
		o := frameReserve(b)
		o = append(o, wireVersion, frameNack)
		o = binary.LittleEndian.AppendUint32(o, nackRetryAfterSecs)
		if read {
			o = appendReadRespPayload(o, resp)
		} else {
			o = appendBatchRespPayload(o, resp)
		}
		return frameOut(b, o), false
	case read:
		o := frameReserve(b)
		o = append(o, wireVersion, frameReadResp)
		o = appendReadRespPayload(o, resp)
		return frameOut(b, o), false
	default:
		o := frameReserve(b)
		o = append(o, wireVersion, frameBatchResp)
		o = appendBatchRespPayload(o, resp)
		return frameOut(b, o), false
	}
}

// nackRetryAfterSecs mirrors the JSON API's Retry-After header value.
const nackRetryAfterSecs = 1

// frameReserve starts a response frame in the batch scratch's out
// buffer, leaving room for the length prefix frameOut fills in.
//
//rbsglint:hotpath
func frameReserve(b *batchScratch) []byte {
	if cap(b.out) < 4 {
		b.out = make([]byte, 4)
	}
	return b.out[:4]
}

// frameOut finishes a frame started by frameReserve: the body length
// lands in the reserved prefix and the whole buffer is the frame.
//
//rbsglint:hotpath
func frameOut(b *batchScratch, buf []byte) []byte {
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(buf)-4))
	b.out = buf
	return buf
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
