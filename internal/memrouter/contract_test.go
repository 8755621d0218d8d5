package memrouter

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

// The binary-wire connection contract, checked byte for byte against
// both listeners that serve it: memctld's, and a 1-shard memrouterd's.
// Both run memserver's ConnServer and DecodeRequest, so one table must
// hold for both.

// Frame type bytes as they appear on the wire.
const (
	typeBatchReq  = 0x01
	typeBatchResp = 0x02
	typeErr       = 0x04
)

// wireListener is one binary listener under test.
type wireListener struct {
	addr     string
	shutdown func(context.Context) error
	serve    func(net.Listener) error
}

var contractListeners = []struct {
	name  string
	start func(t *testing.T) wireListener
}{
	{"memctld", func(t *testing.T) wireListener {
		s, bin, _ := startShard(t, shardConfig(256, 5))
		return wireListener{bin, s.ShutdownBinary, s.ServeBinary}
	}},
	{"memrouterd", func(t *testing.T) wireListener {
		_, bin, ctl := startShard(t, shardConfig(256, 5))
		r, addr := serveRouter(t, Config{Shards: []string{bin}, ShardControl: []string{ctl}, Lines: 256})
		return wireListener{addr, r.Shutdown, r.ServeBinary}
	}},
}

// batchBody is a BatchReq body: version, type, count, then per op u64
// line | u8 flags | u8 content.
func batchBody(version, flags, data uint8, lines ...uint64) []byte {
	b := binary.LittleEndian.AppendUint32([]byte{version, typeBatchReq}, uint32(len(lines)))
	for _, l := range lines {
		b = binary.LittleEndian.AppendUint64(b, l)
		b = append(b, flags, data)
	}
	return b
}

func sendFrame(t *testing.T, conn net.Conn, body []byte) {
	t.Helper()
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	if _, err := conn.Write(append(frame, body...)); err != nil {
		t.Fatal(err)
	}
}

func recvFrame(t *testing.T, conn net.Conn) []byte {
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

// expectErr reads one frame and requires an Err frame with code.
func expectErr(t *testing.T, conn net.Conn, code uint16) {
	t.Helper()
	body := recvFrame(t, conn)
	if len(body) < 4 || body[0] != memserver.WireVersion || body[1] != typeErr {
		t.Fatalf("want Err frame (code %d), got body % x", code, body)
	}
	if got := binary.LittleEndian.Uint16(body[2:]); got != code {
		t.Fatalf("Err code %d, want %d (body % x)", got, code, body)
	}
}

// expectServes proves the connection is still in frame sync: a valid
// one-op batch gets a BatchResp.
func expectServes(t *testing.T, conn net.Conn) {
	t.Helper()
	sendFrame(t, conn, batchBody(memserver.WireVersion, 0, 1, 7))
	if body := recvFrame(t, conn); len(body) < 2 || body[1] != typeBatchResp {
		t.Fatalf("valid batch after rejects: got body % x", body)
	}
}

// expectClosed requires the server to have closed the connection.
func expectClosed(t *testing.T, conn net.Conn) {
	t.Helper()
	var one [1]byte
	if _, err := conn.Read(one[:]); err != io.EOF {
		t.Fatalf("connection not closed: read error %v", err)
	}
}

func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func TestConnContract(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, l wireListener)
	}{
		{"version skew keeps the connection", func(t *testing.T, l wireListener) {
			conn := dialRaw(t, l.addr)
			sendFrame(t, conn, batchBody(memserver.WireVersion+1, 0, 1, 7))
			expectErr(t, conn, memserver.WireErrVersion)
			expectServes(t, conn)
		}},
		{"malformed frames keep the connection", func(t *testing.T, l wireListener) {
			conn := dialRaw(t, l.addr)
			flags := batchBody(memserver.WireVersion, 2, 0, 7) // flags outside {0,1}
			retired := binary.LittleEndian.AppendUint32([]byte{memserver.WireVersion, 0x05}, 1)
			retired = binary.LittleEndian.AppendUint64(retired, 7) // the retired read-batch request
			for _, body := range [][]byte{
				{memserver.WireVersion},                           // under header size
				{memserver.WireVersion, 0x7f},                     // unknown type
				retired,                                           // retired type 0x05
				{memserver.WireVersion, 0x06, 0, 0, 0, 0},         // retired type 0x06
				{memserver.WireVersion, typeBatchReq, 3, 0, 0, 0}, // count without ops
				flags,
			} {
				sendFrame(t, conn, body)
				expectErr(t, conn, memserver.WireErrMalformed)
			}
			expectServes(t, conn)
		}},
		{"empty batches and bad ops are rejected", func(t *testing.T, l wireListener) {
			conn := dialRaw(t, l.addr)
			sendFrame(t, conn, batchBody(memserver.WireVersion, 0, 0))
			expectErr(t, conn, memserver.WireErrEmpty)
			sendFrame(t, conn, batchBody(memserver.WireVersion, 0, 1, 7, 256)) // line past the 256-line space
			expectErr(t, conn, memserver.WireErrBadOp)
			sendFrame(t, conn, batchBody(memserver.WireVersion, 0, 3, 7)) // content class outside {0,1,2}
			expectErr(t, conn, memserver.WireErrBadOp)
			expectServes(t, conn)
		}},
		{"pipelined answers keep request order", func(t *testing.T, l wireListener) {
			// A reject answered at once must not overtake the batch
			// still in flight ahead of it.
			conn := dialRaw(t, l.addr)
			for i := 0; i < 4; i++ {
				sendFrame(t, conn, batchBody(memserver.WireVersion, 0, 1, 7, 100, 200))
				sendFrame(t, conn, batchBody(memserver.WireVersion+1, 0, 1, 7))
			}
			for i := 0; i < 4; i++ {
				if body := recvFrame(t, conn); len(body) < 2 || body[1] != typeBatchResp {
					t.Fatalf("answer %d: want BatchResp, got body % x", 2*i, body)
				}
				expectErr(t, conn, memserver.WireErrVersion)
			}
		}},
		{"oversized frame gets an Err and a close", func(t *testing.T, l wireListener) {
			conn := dialRaw(t, l.addr)
			if _, err := conn.Write(binary.LittleEndian.AppendUint32(nil, memserver.WireMaxBody+1)); err != nil {
				t.Fatal(err)
			}
			expectErr(t, conn, memserver.WireErrTooLarge)
			expectClosed(t, conn)
		}},
		{"drain says goodbye", func(t *testing.T, l wireListener) {
			conn := dialRaw(t, l.addr)
			expectServes(t, conn) // live, its reader now parked
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := l.shutdown(ctx); err != nil {
				t.Fatalf("shutdown: %v", err)
			}
			expectErr(t, conn, memserver.WireErrDraining)
			expectClosed(t, conn)
		}},
		{"ServeBinary after shutdown closes its listener", func(t *testing.T, l wireListener) {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := l.shutdown(ctx); err != nil {
				t.Fatalf("shutdown: %v", err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			done := make(chan error, 1)
			go func() { done <- l.serve(ln) }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("ServeBinary after shutdown: %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("ServeBinary after shutdown blocked")
			}
			if _, err := ln.Accept(); !errors.Is(err, net.ErrClosed) {
				t.Fatalf("listener still open after ServeBinary returned: Accept error %v", err)
			}
		}},
	}
	for _, l := range contractListeners {
		for _, tc := range cases {
			t.Run(l.name+"/"+tc.name, func(t *testing.T) { tc.run(t, l.start(t)) })
		}
	}
}
