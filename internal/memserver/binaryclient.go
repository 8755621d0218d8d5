package memserver

import (
	"encoding/binary"
	"fmt"
	"net"
	"time"

	"securityrbsg/internal/pcm"
)

// BinaryClient speaks the binary wire protocol (wire.go) over one TCP
// connection. Its Write and Read methods satisfy attack.Target —
// logical address in, simulated latency out — so every attacker in
// internal/attack runs unmodified against a live server; that is what
// the wire-level RTA regression drives.
//
// The client supports two calling styles over the same connection:
//
//   - Lockstep: Batch sends one frame and blocks for its response, one
//     request in flight.
//   - Pipelined: SendBatch enqueues frames without waiting, RecvBatch
//     completes them strictly in send order (the server answers a
//     connection's frames in arrival order, so in-order completion is a
//     protocol property, not a client guess). The caller owns the
//     window: keep at most a bounded number of sends un-received so a
//     stalled server backs pressure up instead of ballooning socket
//     buffers. Pipelining changes nothing on the wire — every frame is
//     a v1 frame a lockstep server answers identically — so there is
//     no negotiation and no fallback to manage.
//
// Concurrency: send-side state (the encode buffer) and recv-side state
// (the header and decode buffers) are disjoint, so ONE goroutine may
// send while ONE other goroutine receives — the shape the router's
// per-connection sender/receiver pairs use. The client is not safe for
// two concurrent senders or two concurrent receivers, and the lockstep
// calls (which both send and receive) must not overlap pipelined use.
// loadgen gives each worker its own client.
type BinaryClient struct {
	conn net.Conn
	// Version overrides the wire version byte on outgoing frames; zero
	// means the current protocol version. Tests use it to probe how
	// servers answer version skew.
	Version uint8

	// Send-side state: owned by the sending goroutine.
	wbuf []byte

	// Recv-side state: owned by the receiving goroutine.
	hdr  [4]byte
	rbuf []byte

	// Lockstep-call state (Batch/Write/Read only).
	resp BatchResponse
}

// DialBinary connects to a memctld binary listener (host:port).
func DialBinary(addr string) (*BinaryClient, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("binary dial %s: %w", addr, err)
	}
	return &BinaryClient{conn: conn}, nil
}

// BackpressureError reports a Nack frame: a full bank queue refused
// part of the batch, and the server asked the client to back off for
// RetryAfter.
type BackpressureError struct {
	RetryAfter time.Duration
	// Resp holds the partial batch accounting when the Nack carried it
	// (nil otherwise).
	Resp *BatchResponse
}

func (e *BackpressureError) Error() string {
	return fmt.Sprintf("server backpressure, retry after %v", e.RetryAfter)
}

// Close tears down the connection.
func (c *BinaryClient) Close() error { return c.conn.Close() }

// version resolves the wire version to send.
func (c *BinaryClient) version() uint8 {
	if c.Version != 0 {
		return c.Version
	}
	return WireVersion
}

// SendBatch writes one batch frame without waiting for its response.
// The ops are fully serialized before this returns; the caller may
// reuse the slice immediately. Complete the frame with RecvBatch —
// responses arrive in send order.
//
//rbsglint:hotpath
func (c *BinaryClient) SendBatch(ops []BatchOp) error {
	// Compose the body after a 4-byte hole, then fill the length prefix:
	// one buffer, one conn.Write, no staging copy.
	c.wbuf = appendBatchReqBody(append(c.wbuf[:0], 0, 0, 0, 0), c.version(), ops)
	binary.LittleEndian.PutUint32(c.wbuf, uint32(len(c.wbuf)-4))
	if _, err := c.conn.Write(c.wbuf); err != nil {
		return fmt.Errorf("binary write: %w", err)
	}
	return nil
}

// RecvBatch reads the oldest outstanding batch response into resp,
// reusing resp's slice capacity. On a Nack frame it returns a
// *BackpressureError carrying the retry-after and the partial
// accounting (decoded into resp); on an Err frame it returns the typed
// *WireError.
//
//rbsglint:hotpath
func (c *BinaryClient) RecvBatch(resp *BatchResponse) error {
	body, err := c.readFrame()
	if err != nil {
		return err
	}
	if len(body) < wireHdrSize {
		return fmt.Errorf("binary response body %d bytes, below header size", len(body))
	}
	if body[0] != WireVersion {
		return fmt.Errorf("binary response version %d, client speaks %d", body[0], WireVersion)
	}
	switch body[1] {
	case frameBatchResp:
		if code := decodeBatchRespPayload(body[wireHdrSize:], resp); code != 0 {
			return fmt.Errorf("binary response payload failed decode (code %d)", code)
		}
		return nil
	case frameNack:
		payload := body[wireHdrSize:]
		if len(payload) < 4 {
			return fmt.Errorf("binary nack payload %d bytes, below retry-after field", len(payload))
		}
		//rbsglint:allow hotpathalloc -- backpressure branch only; one error value per Nacked frame
		be := &BackpressureError{
			RetryAfter: time.Duration(binary.LittleEndian.Uint32(payload)) * time.Second,
		}
		if decodeBatchRespPayload(payload[4:], resp) == 0 {
			be.Resp = resp
		}
		return be
	case frameErr:
		//rbsglint:allow hotpathalloc -- protocol-reject branch only; never on the steady-state path
		we, ok := decodeErrBody(body[wireHdrSize:])
		if !ok {
			return fmt.Errorf("binary err frame payload failed decode")
		}
		return we
	default:
		//rbsglint:allow hotpathalloc -- unknown-frame error path
		return fmt.Errorf("binary response frame type %d unknown", body[1])
	}
}

// Batch sends one batch frame and blocks for its answer (lockstep).
// The returned response is the client's own buffer, valid until the
// next lockstep call.
func (c *BinaryClient) Batch(ops []BatchOp) (*BatchResponse, error) {
	if err := c.SendBatch(ops); err != nil {
		return nil, err
	}
	if err := c.RecvBatch(&c.resp); err != nil {
		return nil, err
	}
	return &c.resp, nil
}

// readFrame reads one length-prefixed frame body into the client's
// receive buffer.
//
//rbsglint:hotpath
func (c *BinaryClient) readFrame() ([]byte, error) {
	if err := readFull(c.conn, c.hdr[:]); err != nil {
		return nil, fmt.Errorf("binary read header: %w", err)
	}
	n := binary.LittleEndian.Uint32(c.hdr[:])
	if n > WireMaxBody {
		return nil, fmt.Errorf("binary response body %d bytes over limit %d", n, WireMaxBody)
	}
	if cap(c.rbuf) < int(n) {
		c.rbuf = make([]byte, n)
	}
	c.rbuf = c.rbuf[:n]
	if err := readFull(c.conn, c.rbuf); err != nil {
		return nil, fmt.Errorf("binary read body: %w", err)
	}
	return c.rbuf, nil
}

// mustBatch runs one lockstep batch, sleeping out backpressure until it
// applies: demand ops must not be silently dropped (an attacker's write
// stream, like a CPU's, just stalls until the controller accepts it).
// It panics on any other error: Write and Read exist to satisfy
// attack.Target for tests and demos, where a broken server is fatal.
func (c *BinaryClient) mustBatch(ops []BatchOp) *BatchResponse {
	for {
		resp, err := c.Batch(ops)
		if err == nil {
			return resp
		}
		be, ok := err.(*BackpressureError)
		if !ok {
			panic(fmt.Errorf("memserver client: batch: %w", err)) //rbsglint:allow panicpolicy -- documented attack.Target contract: a broken server is fatal in the tests/demos this client exists for
		}
		time.Sleep(be.RetryAfter)
	}
}

// Write issues one demand write and returns the simulated latency in
// nanoseconds; it panics on transport errors (mustBatch).
func (c *BinaryClient) Write(la uint64, content pcm.Content) uint64 {
	return c.mustBatch([]BatchOp{{Line: la, Data: uint8(content)}}).Ns[0]
}

// Read issues one demand read; same contract as Write.
func (c *BinaryClient) Read(la uint64) (pcm.Content, uint64) {
	resp := c.mustBatch([]BatchOp{{Line: la, Read: true}})
	return pcm.Content(resp.Data[0]), resp.Ns[0]
}
