package memserver

import (
	"context"
	"net"
)

// The binary listener: the same batch engine as /v1/batch behind the
// length-prefixed wire protocol (wire.go) on the shared connection
// server (conn.go). Each connection's handler decodes a frame into its
// batch scratch, runs it through executeBatch (the identical
// coalesce/enqueue/collect core the JSON handler uses — banks cannot
// tell the protocols apart) and encodes the answer, all in Begin on the
// reader goroutine, so at most one frame per connection sits in the
// bank queues. Backpressure maps the JSON 429+Retry-After onto a Nack
// frame carrying the retry-after seconds and the partial accounting;
// draining maps 503 onto a typed Err frame. Per-op simulated latencies
// cross this wire exactly as they cross the JSON one, so the timing
// side channel is transport-neutral.

// ServeBinary accepts binary-protocol connections on ln until the
// listener closes (ShutdownBinary closes it, as does memctld on
// SIGTERM). It returns nil on a clean close, and at once, closing ln,
// when ShutdownBinary has already run.
func (s *Server) ServeBinary(ln net.Listener) error { return s.bin.Serve(ln) }

// ShutdownBinary stops the binary protocol: listeners close, each
// connection answers its in-flight frames and says goodbye with a
// draining Err frame, and every connection is waited for (or
// force-closed when ctx expires). Call it before Drain, like
// http.Server.Shutdown: the actors must still be running while
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
	return &binConn{s: s, sc: newBatchScratch(s.cfg.Banks)}
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
