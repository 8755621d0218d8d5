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
	"securityrbsg/internal/stats"
)

// startBinaryListener attaches a binary-protocol listener to s and
// registers its shutdown (before any drain cleanup the caller has
// already registered — t.Cleanup runs LIFO, and ShutdownBinary must
// run while the actors still do).
func startBinaryListener(t *testing.T, s *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.ServeBinary(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.ShutdownBinary(ctx); err != nil {
			t.Errorf("binary shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve binary: %v", err)
		}
	})
	return ln.Addr().String()
}

// startBinaryServer builds and starts a server with a binary listener
// and returns a connected client plus the listener address.
func startBinaryServer(t *testing.T, cfg Config) (*Server, *BinaryClient, string) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	addr := startBinaryListener(t, s)
	c := dialBinary(t, addr)
	return s, c, addr
}

func dialBinary(t *testing.T, addr string) *BinaryClient {
	t.Helper()
	c, err := DialBinary(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestBinaryWriteReadRoundTrip(t *testing.T) {
	_, c, _ := startBinaryServer(t, testConfig())
	for _, la := range []uint64{0, 1, 2, 3, 4095, 1234} {
		want := pcm.Content(la % 3)
		if ns := c.Write(la, want); ns == 0 {
			t.Fatalf("write LA %d: zero latency", la)
		}
		got, ns := c.Read(la)
		if got != want {
			t.Fatalf("read LA %d = %v, want %v", la, got, want)
		}
		if ns < pcm.DefaultTiming.ReadNs {
			t.Fatalf("read LA %d: latency %d below device read time", la, ns)
		}
	}
}

// TestBinaryMatchesJSON is the differential proof the two transports
// front the same machine: identically seeded servers fed the same op
// stream — one over HTTP+JSON, one over the binary protocol — must
// report identical per-op latencies, data, and accounting.
func TestBinaryMatchesJSON(t *testing.T) {
	_, jc := startServer(t, testConfig())
	_, bc, _ := startBinaryServer(t, testConfig())

	rng := stats.NewRNG(7)
	ops := make([]BatchOp, 100)
	for round := 0; round < 5; round++ {
		for i := range ops {
			ops[i] = BatchOp{Line: rng.Uint64n(4096), Data: uint8(rng.Uint64n(3))}
			if rng.Float64() < 0.2 {
				ops[i].Read = true
				ops[i].Data = 0
			}
		}
		jr, err := jc.Batch(ops)
		if err != nil {
			t.Fatal(err)
		}
		br, err := bc.Batch(ops)
		if err != nil {
			t.Fatal(err)
		}
		if jr.Applied != br.Applied || jr.Rejected != br.Rejected ||
			jr.NsSum != br.NsSum || jr.NsMax != br.NsMax {
			t.Fatalf("round %d accounting: json %+v != binary %+v", round, jr, br)
		}
		for i := range ops {
			if jr.Ns[i] != br.Ns[i] || jr.Data[i] != br.Data[i] {
				t.Fatalf("round %d op %d (%+v): json ns=%d d=%d, binary ns=%d d=%d",
					round, i, ops[i], jr.Ns[i], jr.Data[i], br.Ns[i], br.Data[i])
			}
		}
	}
}

// TestBinaryVersionSkew pins the versioning rule: a frame from the
// future gets a typed Err frame back — listable by the client — and
// the connection survives to serve the current version.
func TestBinaryVersionSkew(t *testing.T) {
	_, c, _ := startBinaryServer(t, testConfig())
	c.Version = wireVersion + 1
	_, err := c.Batch([]BatchOp{{Line: 1}})
	var we *WireError
	if !errors.As(err, &we) {
		t.Fatalf("skewed batch: got %v, want *WireError", err)
	}
	if we.Code != wireErrVersion {
		t.Fatalf("skewed batch: code %d, want %d (unsupported-version)", we.Code, wireErrVersion)
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

// TestBinaryNackBackpressure mirrors TestBackpressure429: a full bank
// queue answers with a Nack frame carrying retry-after and partial
// accounting instead of an HTTP 429.
func TestBinaryNackBackpressure(t *testing.T) {
	cfg := testConfig()
	cfg.QueueDepth = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.QueueDepth; i++ {
		s.actors[0].ch <- bankReq{}
	}
	addr := startBinaryListener(t, s)
	c := dialBinary(t, addr)

	resp, err := c.Batch([]BatchOp{{Line: 0}})
	be, ok := err.(*BackpressureError)
	if !ok {
		t.Fatalf("want BackpressureError, got resp=%+v err=%v", resp, err)
	}
	if be.RetryAfter != nackRetryAfterSecs*time.Second {
		t.Fatalf("retry-after %v, want %ds", be.RetryAfter, nackRetryAfterSecs)
	}
	if be.Resp == nil || be.Resp.Rejected != 1 || be.Resp.Applied != 0 {
		t.Fatalf("partial accounting wrong: %+v", be.Resp)
	}
	if got := s.actors[0].rejected.Load(); got != 1 {
		t.Fatalf("bank 0 rejected counter = %d, want 1", got)
	}
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
	if len(body) < wireHdrSize || body[0] != wireVersion || body[1] != frameErr {
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

// TestBinaryOversizedFrameClosesConn: a length prefix over wireMaxBody
// is answered with a typed Err frame and the connection closes — the
// server will not stream-skip an attacker-sized body.
func TestBinaryOversizedFrameClosesConn(t *testing.T) {
	s, _, addr := startBinaryServer(t, testConfig())
	conn := rawDial(t, addr)
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], wireMaxBody+1)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	wantErrFrame(t, readRawFrame(t, conn), wireErrTooLarge)
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
	_, _, addr := startBinaryServer(t, testConfig())
	conn := rawDial(t, addr)

	send := func(body []byte) {
		t.Helper()
		if _, err := conn.Write(appendFrame(nil, body)); err != nil {
			t.Fatal(err)
		}
	}

	// Body below the version+type prelude.
	send([]byte{wireVersion})
	wantErrFrame(t, readRawFrame(t, conn), wireErrMalformed)

	// Unknown frame type.
	send([]byte{wireVersion, 0x7f})
	wantErrFrame(t, readRawFrame(t, conn), wireErrMalformed)

	// Count disagreeing with the payload length.
	body := []byte{wireVersion, frameBatchReq}
	body = binary.LittleEndian.AppendUint32(body, 3) // claims 3 ops, carries none
	send(body)
	wantErrFrame(t, readRawFrame(t, conn), wireErrMalformed)

	// Flags outside {0,1}.
	body = appendBatchReqBody(nil, wireVersion, []BatchOp{{Line: 1}})
	body[len(body)-2] = 2
	send(body)
	wantErrFrame(t, readRawFrame(t, conn), wireErrMalformed)

	// Zero ops.
	send(appendBatchReqBody(nil, wireVersion, nil))
	wantErrFrame(t, readRawFrame(t, conn), wireErrEmpty)

	// The same connection still serves a valid batch.
	send(appendBatchReqBody(nil, wireVersion, []BatchOp{{Line: 1}}))
	resp := readRawFrame(t, conn)
	if len(resp) < wireHdrSize || resp[0] != wireVersion || resp[1] != frameBatchResp {
		t.Fatalf("valid batch after rejects: got frame % x", resp)
	}
}

// TestBinaryBadOp: semantically invalid ops are rejected whole with a
// typed Err frame, before any bank sees the batch.
func TestBinaryBadOp(t *testing.T) {
	_, c, _ := startBinaryServer(t, testConfig())
	for _, ops := range [][]BatchOp{
		{{Line: 4096}},               // out of the 4096-line space
		{{Line: 1, Data: 3}},         // content class outside {0,1,2}
		{{Line: 1}, {Line: 1 << 40}}, // one good op does not save the batch
	} {
		_, err := c.Batch(ops)
		var we *WireError
		if !errors.As(err, &we) || we.Code != wireErrBadOp {
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
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.ServeBinary(ln) }()

	conn := rawDial(t, ln.Addr().String())
	// Prove the connection is live, then leave its reader parked.
	if _, err := conn.Write(appendFrame(nil, appendBatchReqBody(nil, wireVersion, []BatchOp{{Line: 9}}))); err != nil {
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
	wantErrFrame(t, readRawFrame(t, conn), wireErrDraining)
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

// TestBinaryRejectPathZeroAlloc pins the satellite contract directly:
// once warm, every pre-execution reject path through processFrame
// allocates nothing.
func TestBinaryRejectPathZeroAlloc(t *testing.T) {
	s := MustNew(testConfig()) // actors never started: rejects must not reach them
	sc := &connScratch{batch: getBatchScratch(s.cfg.Banks)}
	defer putBatchScratch(sc.batch)

	badop := appendBatchReqBody(nil, wireVersion, []BatchOp{{Line: 1 << 40}})
	flags := appendBatchReqBody(nil, wireVersion, []BatchOp{{Line: 1}})
	flags[len(flags)-2] = 2
	cases := map[string][]byte{
		"short":    {wireVersion},
		"skew":     {wireVersion + 1, frameBatchReq, 0, 0, 0, 0},
		"badtype":  {wireVersion, 0x7f},
		"truncate": {wireVersion, frameBatchReq, 9, 0, 0, 0},
		"empty":    appendBatchReqBody(nil, wireVersion, nil),
		"badop":    badop,
		"flags":    flags,
	}
	for name, body := range cases {
		s.processFrame(sc, body) // warm the scratch buffers
		if n := testing.AllocsPerRun(200, func() { s.processFrame(sc, body) }); n != 0 {
			t.Errorf("%s reject path allocates %.1f per frame, want 0", name, n)
		}
	}
}

// TestBinaryMetricsCounters: the per-protocol counters split serving
// traffic by transport.
func TestBinaryMetricsCounters(t *testing.T) {
	s, c, _ := startBinaryServer(t, testConfig())
	for round := 0; round < 2; round++ {
		if _, err := c.Batch([]BatchOp{{Line: 1}, {Line: 2}, {Line: 3}}); err != nil {
			t.Fatal(err)
		}
	}
	c.Version = wireVersion + 1
	if _, err := c.Batch([]BatchOp{{Line: 1}}); err == nil {
		t.Fatal("skewed batch not rejected")
	}
	c.Version = 0

	m := ParseMetrics(s.MetricsText())
	for name, want := range map[string]float64{
		"memctld_binary_frames_total":   3,
		"memctld_binary_reject_total":   1,
		"memctld_binary_line_ops_total": 6,
		"memctld_json_line_ops_total":   0,
	} {
		if m[name] != want {
			t.Errorf("%s = %v, want %v", name, m[name], want)
		}
	}
}
