package memserver

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"securityrbsg/internal/pcm"
)

// TestBinaryVersionSkew pins the versioning rule: a frame from the
// future gets a typed Err frame back — listable by the client — and
// the connection survives to serve the current version.
func TestBinaryVersionSkew(t *testing.T) {
	_, c, _ := startServer(t, testConfig())
	c.Version = WireVersion + 1
	_, err := c.Batch([]BatchOp{{Line: 1}})
	var we *WireError
	if !errors.As(err, &we) {
		t.Fatalf("skewed batch: got %v, want *WireError", err)
	}
	if we.Code != WireErrVersion {
		t.Fatalf("skewed batch: code %d, want %d (unsupported-version)", we.Code, WireErrVersion)
	}
	if !strings.Contains(we.Error(), "unsupported-version") ||
		!strings.Contains(we.Error(), "known codes:") {
		t.Fatalf("skew error not listable: %q", we.Error())
	}
	// Same connection, correct version: framing stayed intact.
	c.Version = 0
	resp, err := c.Batch([]BatchOp{{Line: 1}})
	if err != nil || resp.Applied != 1 {
		t.Fatalf("post-skew batch on same conn: resp=%+v err=%v", resp, err)
	}
}

// TestBinaryNackBackpressure fills a bank's admission and checks the
// server answers a Nack frame carrying retry-after and partial
// accounting instead of blocking.
func TestBinaryNackBackpressure(t *testing.T) {
	cfg := testConfig()
	cfg.QueueDepth = 2
	s := runServerFullBank(t, cfg, 0)
	c := dialBinary(t, startBinaryListener(t, s))

	// LA 0 routes to bank 0 → full queue → Nack. Batch does not retry,
	// so the rejection is observable.
	resp, err := c.Batch([]BatchOp{{Line: 0}})
	be, ok := err.(*BackpressureError)
	if !ok {
		t.Fatalf("want BackpressureError, got resp=%+v err=%v", resp, err)
	}
	if be.RetryAfter != NackRetryAfterSecs*time.Second {
		t.Fatalf("retry-after %v, want %ds", be.RetryAfter, NackRetryAfterSecs)
	}
	if be.Resp == nil || be.Resp.Rejected != 1 || be.Resp.Applied != 0 {
		t.Fatalf("partial accounting wrong: %+v", be.Resp)
	}
	if got := s.banks[0].rejected.Load(); got != 1 {
		t.Fatalf("bank 0 rejected counter = %d, want 1", got)
	}
}

// appendFrame wraps a finished body with its length prefix.
func appendFrame(b, body []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(body)))
	return append(b, body...)
}

// rawDial opens a plain TCP connection to the binary listener for
// tests that speak the protocol by hand.
func rawDial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// readRawFrame reads one frame body off a raw connection.
func readRawFrame(t *testing.T, conn net.Conn) []byte {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var hdr [4]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		t.Fatalf("read frame header: %v", err)
	}
	body := make([]byte, binary.LittleEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(conn, body); err != nil {
		t.Fatalf("read frame body: %v", err)
	}
	return body
}

// wantErrFrame asserts body is an Err frame with the given code.
func wantErrFrame(t *testing.T, body []byte, code uint16) {
	t.Helper()
	if len(body) < wireHdrSize || body[0] != WireVersion || body[1] != frameErr {
		t.Fatalf("want Err frame, got body % x", body)
	}
	we, ok := decodeErrBody(body[wireHdrSize:])
	if !ok {
		t.Fatalf("Err frame payload failed decode: % x", body)
	}
	if we.Code != code {
		t.Fatalf("Err code %d (%s), want %d", we.Code, we.Msg, code)
	}
}

// TestBinaryOversizedFrameClosesConn: a length prefix over WireMaxBody
// is answered with a typed Err frame and the connection closes — the
// server will not stream-skip an attacker-sized body.
func TestBinaryOversizedFrameClosesConn(t *testing.T) {
	s := runServer(t, testConfig())
	conn := rawDial(t, startBinaryListener(t, s))
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], WireMaxBody+1)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	wantErrFrame(t, readRawFrame(t, conn), WireErrTooLarge)
	if _, err := conn.Read(hdr[:1]); err != io.EOF {
		t.Fatalf("connection not closed after oversized frame: %v", err)
	}
	if got := s.binRejects.Load(); got != 1 {
		t.Fatalf("binary_reject_total = %d, want 1", got)
	}
}

// TestBinaryMalformedKeepsConn: structurally broken bodies get typed
// Err frames but — being length-delimited — do not cost the
// connection.
func TestBinaryMalformedKeepsConn(t *testing.T) {
	conn := rawDial(t, startBinaryListener(t, runServer(t, testConfig())))

	send := func(body []byte) {
		t.Helper()
		if _, err := conn.Write(appendFrame(nil, body)); err != nil {
			t.Fatal(err)
		}
	}

	// Body below the version+type prelude.
	send([]byte{WireVersion})
	wantErrFrame(t, readRawFrame(t, conn), WireErrMalformed)

	// Unknown frame type.
	send([]byte{WireVersion, 0x7f})
	wantErrFrame(t, readRawFrame(t, conn), WireErrMalformed)

	// Count disagreeing with the payload length.
	body := []byte{WireVersion, frameBatchReq}
	body = binary.LittleEndian.AppendUint32(body, 3) // claims 3 ops, carries none
	send(body)
	wantErrFrame(t, readRawFrame(t, conn), WireErrMalformed)

	// Flags outside {0,1}.
	body = appendBatchReqBody(nil, WireVersion, []BatchOp{{Line: 1}})
	body[len(body)-2] = 2
	send(body)
	wantErrFrame(t, readRawFrame(t, conn), WireErrMalformed)

	// Zero ops.
	send(appendBatchReqBody(nil, WireVersion, nil))
	wantErrFrame(t, readRawFrame(t, conn), WireErrEmpty)

	// The same connection still serves a valid batch.
	send(appendBatchReqBody(nil, WireVersion, []BatchOp{{Line: 1}}))
	resp := readRawFrame(t, conn)
	if len(resp) < wireHdrSize || resp[0] != WireVersion || resp[1] != frameBatchResp {
		t.Fatalf("valid batch after rejects: got frame % x", resp)
	}
}

// TestBinaryBadOp: semantically invalid ops are rejected whole with a
// typed Err frame, before any bank sees the batch.
func TestBinaryBadOp(t *testing.T) {
	_, c, _ := startServer(t, testConfig())
	for _, ops := range [][]BatchOp{
		{{Line: 4096}},               // out of the 4096-line space
		{{Line: 1, Data: 3}},         // content class outside {0,1,2}
		{{Line: 1}, {Line: 1 << 40}}, // one good op does not save the batch
	} {
		_, err := c.Batch(ops)
		var we *WireError
		if !errors.As(err, &we) || we.Code != WireErrBadOp {
			t.Fatalf("ops %+v: got %v, want WireError bad-op", ops, err)
		}
	}
	// Rejection is pre-execution: nothing was applied.
	if got, _ := c.Read(1); got != pcm.Zeros {
		t.Fatalf("rejected batch mutated line 1: %v", got)
	}
}

// TestBinaryDrainGoodbye: a connection parked in a read when shutdown
// begins is told why (a draining Err frame) before the socket closes.
func TestBinaryDrainGoodbye(t *testing.T) {
	s := runServer(t, testConfig())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.ServeBinary(ln) }()

	conn := rawDial(t, ln.Addr().String())
	// Prove the connection is live, then leave its reader parked.
	if _, err := conn.Write(appendFrame(nil, appendBatchReqBody(nil, WireVersion, []BatchOp{{Line: 9}}))); err != nil {
		t.Fatal(err)
	}
	readRawFrame(t, conn)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.ShutdownBinary(ctx); err != nil {
		t.Fatalf("binary shutdown: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve binary: %v", err)
	}
	wantErrFrame(t, readRawFrame(t, conn), WireErrDraining)
	var one [1]byte
	if _, err := conn.Read(one[:]); err != io.EOF {
		t.Fatalf("connection not closed after drain goodbye: %v", err)
	}
}

// TestServeBinaryAfterShutdown: a daemon told to drain before its
// ServeBinary goroutine got going must not leave that goroutine parked
// in Accept. ServeBinary returns nil at once and closes the listener.
func TestServeBinaryAfterShutdown(t *testing.T) {
	s := MustNew(testConfig())
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.ShutdownBinary(ctx); err != nil {
		t.Fatalf("binary shutdown: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() { done <- s.ServeBinary(ln) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve binary after shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeBinary after shutdown blocked")
	}
	if _, err := ln.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("listener still open after ServeBinary returned: Accept error %v", err)
	}
}

// TestBinaryRejectPathZeroAlloc pins the contract directly: once warm,
// every pre-execution reject path through a connection handler
// allocates nothing.
func TestBinaryRejectPathZeroAlloc(t *testing.T) {
	s := MustNew(testConfig()) // executors never started: rejects must not reach them
	h := s.newBinConn()
	frame := func(body []byte) { h.Begin(0, body) }

	badop := appendBatchReqBody(nil, WireVersion, []BatchOp{{Line: 1 << 40}})
	flags := appendBatchReqBody(nil, WireVersion, []BatchOp{{Line: 1}})
	flags[len(flags)-2] = 2
	cases := map[string][]byte{
		"short":    {WireVersion},
		"skew":     {WireVersion + 1, frameBatchReq, 0, 0, 0, 0},
		"badtype":  {WireVersion, 0x7f},
		"retired":  {WireVersion, 0x05, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		"truncate": {WireVersion, frameBatchReq, 9, 0, 0, 0},
		"empty":    appendBatchReqBody(nil, WireVersion, nil),
		"badop":    badop,
		"flags":    flags,
	}
	for name, body := range cases {
		frame(body) // warm the slot's buffer
		if n := testing.AllocsPerRun(200, func() { frame(body) }); n != 0 {
			t.Errorf("%s reject path allocates %.1f per frame, want 0", name, n)
		}
	}
}

// TestBinaryMetricsCounters: the binary listener counts frames, rejects
// and applied line ops.
func TestBinaryMetricsCounters(t *testing.T) {
	s, c, _ := startServer(t, testConfig())
	for round := 0; round < 2; round++ {
		if _, err := c.Batch([]BatchOp{{Line: 1}, {Line: 2}, {Line: 3}}); err != nil {
			t.Fatal(err)
		}
	}
	c.Version = WireVersion + 1
	if _, err := c.Batch([]BatchOp{{Line: 1}}); err == nil {
		t.Fatal("skewed batch not rejected")
	}
	c.Version = 0

	m := ParseMetrics(s.MetricsText())
	for name, want := range map[string]float64{
		"memctld_binary_frames_total":   3,
		"memctld_binary_reject_total":   1,
		"memctld_binary_line_ops_total": 6,
	} {
		if m[name] != want {
			t.Errorf("%s = %v, want %v", name, m[name], want)
		}
	}
}

// TestBinaryPipelinedInOrder drives the windowed client calls: a burst
// of frames goes out before any response is read, then the responses
// are received strictly in send order. Each batch writes a distinct
// content sequence and reads back the line the *previous* batch wrote,
// so any reorder or drop shows up as wrong data, and the final state
// must match what the same ops produce in lockstep on a twin server.
func TestBinaryPipelinedInOrder(t *testing.T) {
	_, pc, _ := startServer(t, testConfig())
	_, lc, _ := startServer(t, testConfig())

	const window = 16
	batch := func(i int) []BatchOp {
		// Write line i with content i%3, read back line i-1 (written by
		// the previous batch — only correct if the server saw them in
		// order).
		ops := []BatchOp{{Line: uint64(i), Data: uint8(i % 3)}}
		if i > 0 {
			ops = append(ops, BatchOp{Line: uint64(i - 1), Read: true})
		}
		return ops
	}

	var lockstep []BatchResponse
	for i := 0; i < window; i++ {
		r, err := lc.Batch(batch(i))
		if err != nil {
			t.Fatal(err)
		}
		cp := *r
		cp.Ns = append([]uint64(nil), r.Ns...)
		cp.Data = append([]uint8(nil), r.Data...)
		lockstep = append(lockstep, cp)
	}

	for i := 0; i < window; i++ {
		if err := pc.SendBatch(batch(i)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	var resp BatchResponse
	for i := 0; i < window; i++ {
		if err := pc.RecvBatch(&resp); err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		want := &lockstep[i]
		if resp.Applied != want.Applied || resp.NsSum != want.NsSum || resp.NsMax != want.NsMax {
			t.Fatalf("batch %d accounting: pipelined %+v != lockstep %+v", i, resp, want)
		}
		for j := range resp.Data {
			if resp.Data[j] != want.Data[j] || resp.Ns[j] != want.Ns[j] {
				t.Fatalf("batch %d op %d: pipelined ns=%d d=%d != lockstep ns=%d d=%d",
					i, j, resp.Ns[j], resp.Data[j], want.Ns[j], want.Data[j])
			}
		}
		if i > 0 {
			if got, want := resp.Data[1], uint8((i-1)%3); got != want {
				t.Fatalf("batch %d read back %d, want %d (reordered?)", i, got, want)
			}
		}
	}
}

// TestBinaryPipelinedReadBatches: pipelined batches of reads complete in
// send order while a sender goroutine runs concurrently with a receiver
// goroutine on one client (disjoint buffer halves).
func TestBinaryPipelinedReadBatches(t *testing.T) {
	_, c, _ := startServer(t, testConfig())
	const rounds = 64
	writes := make([]BatchOp, rounds+1)
	for i := range writes {
		writes[i] = BatchOp{Line: uint64(i), Data: uint8(i % 3)}
	}
	if _, err := c.Batch(writes); err != nil {
		t.Fatal(err)
	}

	errs := make(chan error, 1)
	go func() {
		for i := 0; i < rounds; i++ {
			if err := c.SendBatch([]BatchOp{{Line: uint64(i), Read: true}, {Line: uint64(i + 1), Read: true}}); err != nil {
				errs <- err
				return
			}
		}
		errs <- nil
	}()
	var r BatchResponse
	for i := 0; i < rounds; i++ {
		if err := c.RecvBatch(&r); err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if r.Applied != 2 || len(r.Data) != 2 || r.Data[0] != uint8(i%3) || r.Data[1] != uint8((i+1)%3) {
			t.Fatalf("recv %d: applied %d data %v, want lines %d and %d (reordered?)", i, r.Applied, r.Data, i, i+1)
		}
	}
	if err := <-errs; err != nil {
		t.Fatalf("sender: %v", err)
	}
}

// TestBinaryReadNackBackpressure: a batch of reads that one full bank
// partly refuses is Nacked, and the partial accounting carries the
// applied reads' data and latencies at their original positions.
func TestBinaryReadNackBackpressure(t *testing.T) {
	cfg := testConfig()
	cfg.QueueDepth = 1
	c := dialBinary(t, startBinaryListener(t, runServerFullBank(t, cfg, 0)))

	// LA 1 → bank 1 (applied), LA 0 → bank 0 (rejected).
	if _, err := c.Batch([]BatchOp{{Line: 1, Data: 2}}); err != nil {
		t.Fatal(err)
	}
	_, err := c.Batch([]BatchOp{{Line: 0, Read: true}, {Line: 1, Read: true}})
	be, ok := err.(*BackpressureError)
	if !ok {
		t.Fatalf("want BackpressureError, got %v", err)
	}
	if be.RetryAfter != NackRetryAfterSecs*time.Second {
		t.Fatalf("retry-after %v, want %ds", be.RetryAfter, NackRetryAfterSecs)
	}
	r := be.Resp
	if r == nil || r.Applied != 1 || r.Rejected != 1 {
		t.Fatalf("partial read accounting wrong: %+v", r)
	}
	if r.Ns[0] != 0 || r.Data[0] != 0 {
		t.Fatalf("rejected read reported ns=%d data=%d, want zeros", r.Ns[0], r.Data[0])
	}
	if r.Ns[1] < pcm.DefaultTiming.ReadNs || r.Data[1] != 2 {
		t.Fatalf("applied read lost in the Nack: ns=%d data=%d, want a read latency and data 2", r.Ns[1], r.Data[1])
	}
}
