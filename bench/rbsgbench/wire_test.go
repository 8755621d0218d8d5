package main

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"securityrbsg/internal/memserver"
)

// startMemserver runs an in-process memserver with a binary listener and
// returns its address; cleanup drains it.
func startMemserver(t *testing.T, cfg memserver.Config) string {
	t.Helper()
	s, err := memserver.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
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
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return ln.Addr().String()
}

// lockstep sends one frame on c and decodes its answer.
func lockstep(t *testing.T, c *wireConn, ops []op, resp *response) {
	t.Helper()
	if err := c.send(ops); err != nil {
		t.Fatal(err)
	}
	n, err := c.waitResponse()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.recv(n, resp); err != nil {
		t.Fatal(err)
	}
}

// TestWireMatchesBinaryClient pins the benchmark's own wire-v1 client to
// the repository's: identically seeded servers fed the same frames, one
// through each client, must answer with identical accounting, per-op
// latencies and data, and the same typed error for a bad op.
func TestWireMatchesBinaryClient(t *testing.T) {
	cfg := memserver.Config{Banks: 8, Lines: 1 << 12, Scheme: memserver.SchemeAdaptive, Seed: 3}
	ours, err := dialWire(startMemserver(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	defer ours.Close()
	theirs, err := memserver.DialBinary(startMemserver(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	defer theirs.Close()

	st, err := newStream(5, 0, 2, cfg.Banks, cfg.Lines, false)
	if err != nil {
		t.Fatal(err)
	}
	var f frame
	var resp response
	for round := 0; round < 50; round++ {
		st.fill(&f, 64)
		st.acked = f.seq
		lockstep(t, ours, f.ops, &resp)
		batch := make([]memserver.BatchOp, len(f.ops))
		for i, o := range f.ops {
			batch[i] = memserver.BatchOp{Line: o.line, Read: o.read, Data: o.data}
		}
		want, err := theirs.Batch(batch)
		if err != nil {
			t.Fatal(err)
		}
		if resp.kind != wireBatchResp || int(resp.applied) != want.Applied || int(resp.rejected) != want.Rejected ||
			resp.nsSum != want.NsSum || resp.nsMax != want.NsMax || len(resp.ns) != len(want.Ns) {
			t.Fatalf("round %d: ours %+v, BinaryClient %+v", round, resp, want)
		}
		for i := range want.Ns {
			if resp.ns[i] != want.Ns[i] || resp.data[i] != want.Data[i] {
				t.Fatalf("round %d op %d: ours ns=%d d=%d, BinaryClient ns=%d d=%d",
					round, i, resp.ns[i], resp.data[i], want.Ns[i], want.Data[i])
			}
		}
		if _, err := st.check(&f, &resp); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}

	bad := []op{{line: cfg.Lines}}
	lockstep(t, ours, bad, &resp)
	_, err = theirs.Batch([]memserver.BatchOp{{Line: cfg.Lines}})
	var we *memserver.WireError
	if !errors.As(err, &we) {
		t.Fatalf("BinaryClient: bad op answered %v, want a WireError", err)
	}
	if resp.kind != wireErr || resp.errCode != we.Code {
		t.Fatalf("bad op: ours kind %#x code %d, BinaryClient code %d", resp.kind, resp.errCode, we.Code)
	}
}

// TestWireDecodesNack feeds both clients the same hand-built Nack frame:
// both must surface the retry-after and the partial accounting alike.
func TestWireDecodesNack(t *testing.T) {
	payload := binary.LittleEndian.AppendUint32(nil, 1) // retry after 1 s
	payload = binary.LittleEndian.AppendUint32(payload, 1)
	payload = binary.LittleEndian.AppendUint32(payload, 1)
	payload = binary.LittleEndian.AppendUint64(payload, 150)
	payload = binary.LittleEndian.AppendUint64(payload, 150)
	payload = binary.LittleEndian.AppendUint32(payload, 2)
	payload = binary.LittleEndian.AppendUint64(payload, 150)
	payload = append(payload, 0)
	payload = binary.LittleEndian.AppendUint64(payload, 0)
	payload = append(payload, 0)
	body := append([]byte{wireVersion, wireNack}, payload...)
	nack := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	nack = append(nack, body...)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				var hdr [4]byte
				for {
					if _, err := io.ReadFull(c, hdr[:]); err != nil {
						return
					}
					if _, err := io.CopyN(io.Discard, c, int64(binary.LittleEndian.Uint32(hdr[:]))); err != nil {
						return
					}
					if _, err := c.Write(nack); err != nil {
						return
					}
				}
			}()
		}
	}()

	ours, err := dialWire(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer ours.Close()
	var resp response
	lockstep(t, ours, []op{{line: 1}, {line: 2}}, &resp)

	theirs, err := memserver.DialBinary(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer theirs.Close()
	_, err = theirs.Batch([]memserver.BatchOp{{Line: 1}, {Line: 2}})
	var be *memserver.BackpressureError
	if !errors.As(err, &be) || be.Resp == nil {
		t.Fatalf("BinaryClient: nack answered %v, want a BackpressureError with accounting", err)
	}
	if resp.kind != wireNack || time.Duration(resp.retryAfter)*time.Second != be.RetryAfter ||
		int(resp.applied) != be.Resp.Applied || int(resp.rejected) != be.Resp.Rejected ||
		resp.ns[0] != be.Resp.Ns[0] || resp.ns[1] != be.Resp.Ns[1] {
		t.Fatalf("nack: ours %+v, BinaryClient %+v / %+v", resp, be, be.Resp)
	}

	st, err := newStream(1, 0, 2, 8, 1<<12, false)
	if err != nil {
		t.Fatal(err)
	}
	var f frame
	st.fill(&f, 2)
	failed, err := st.check(&f, &resp)
	if err != nil || failed != 1 {
		t.Fatalf("nack accounting: failed %d, err %v; want 1 refused op and no error", failed, err)
	}
}
