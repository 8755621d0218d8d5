package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"
)

// The benchmark speaks the documented wire-v1 protocol itself rather
// than through the repository's client, so the numbers it reports are
// pinned to the protocol and not to whatever client code a later change
// rewrites. Every frame is little-endian and length-prefixed:
//
//	frame     := u32 bodyLen | u8 version | u8 type | payload
//	BatchReq  := u32 count | count × (u64 line | u8 flags | u8 content)
//	BatchResp := u32 applied | u32 rejected | u64 nsSum | u64 nsMax |
//	             u32 count | count × (u64 ns | u8 data)
//	Nack      := u32 retryAfterSecs | BatchResp payload
//	Err       := u16 code | u16 msgLen | msg
//
// Only BatchReq is sent: every workload mixes reads into write batches.
const (
	wireVersion   = 1
	wireMaxBody   = 1 << 20
	wireBatchReq  = 0x01
	wireBatchResp = 0x02
	wireNack      = 0x03
	wireErr       = 0x04
	resRecSize    = 9
	respHdrSize   = 28
)

// op is one line operation as the wire carries it.
type op struct {
	line uint64
	read bool
	data uint8 // content class for writes: 0 ALL-0, 1 ALL-1, 2 MIXED
}

// response is one decoded server answer to a BatchReq. kind is the frame
// type; a Nack carries the partial accounting, an Err only its code.
type response struct {
	kind       byte
	retryAfter uint32
	applied    uint32
	rejected   uint32
	nsSum      uint64
	nsMax      uint64
	ns         []uint64
	data       []uint8
	errCode    uint16
}

// wireConn is one v1 connection. One goroutine owns it: frames may be
// pipelined (several sends before the first receive) because the
// protocol answers a connection's frames in send order.
type wireConn struct {
	c    net.Conn
	r    *bufio.Reader
	wbuf []byte
	body []byte
}

func dialWire(addr string) (*wireConn, error) {
	c, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return &wireConn{c: c, r: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (w *wireConn) Close() error { return w.c.Close() }

// encodeBatch appends one complete BatchReq frame for ops to b.
func encodeBatch(b []byte, ops []op) []byte {
	start := len(b)
	b = binary.LittleEndian.AppendUint32(b, 0) // length, patched below
	b = append(b, wireVersion, wireBatchReq)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ops)))
	for _, o := range ops {
		b = binary.LittleEndian.AppendUint64(b, o.line)
		var flags uint8
		if o.read {
			flags = 1
		}
		b = append(b, flags, o.data)
	}
	binary.LittleEndian.PutUint32(b[start:], uint32(len(b)-start-4))
	return b
}

// send writes one BatchReq frame.
func (w *wireConn) send(ops []op) error {
	w.wbuf = encodeBatch(w.wbuf[:0], ops)
	if _, err := w.c.Write(w.wbuf); err != nil {
		return fmt.Errorf("send frame: %w", err)
	}
	return nil
}

// waitResponse blocks until the next response frame has started to
// arrive (its length prefix is readable) and returns its body length.
// Splitting the read there is what lets the trace separate server wait
// from receive-and-decode.
func (w *wireConn) waitResponse() (uint32, error) {
	hdr, err := w.r.Peek(4)
	if err != nil {
		return 0, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n > wireMaxBody {
		return 0, fmt.Errorf("response body %d bytes over the %d-byte limit", n, wireMaxBody)
	}
	return n, nil
}

// recv reads the body announced by waitResponse and decodes it into
// resp, reusing resp's slices.
func (w *wireConn) recv(n uint32, resp *response) error {
	if _, err := w.r.Discard(4); err != nil {
		return fmt.Errorf("read frame header: %w", err)
	}
	if cap(w.body) < int(n) {
		w.body = make([]byte, n)
	}
	w.body = w.body[:n]
	if _, err := io.ReadFull(w.r, w.body); err != nil {
		return fmt.Errorf("read frame body: %w", err)
	}
	return decodeResponse(w.body, resp)
}

// decodeResponse parses one response body (version|type|payload).
func decodeResponse(body []byte, resp *response) error {
	if len(body) < 2 {
		return fmt.Errorf("response body of %d bytes has no header", len(body))
	}
	if body[0] != wireVersion {
		return fmt.Errorf("response version %d, want %d", body[0], wireVersion)
	}
	resp.kind = body[1]
	p := body[2:]
	switch resp.kind {
	case wireBatchResp:
		return decodeBatchPayload(p, resp)
	case wireNack:
		if len(p) < 4 {
			return errors.New("nack payload has no retry-after field")
		}
		resp.retryAfter = binary.LittleEndian.Uint32(p)
		return decodeBatchPayload(p[4:], resp)
	case wireErr:
		if len(p) < 4 {
			return errors.New("err payload shorter than its header")
		}
		resp.errCode = binary.LittleEndian.Uint16(p)
		m := int(binary.LittleEndian.Uint16(p[2:]))
		if len(p) != 4+m {
			return fmt.Errorf("err payload is %d bytes, header says %d", len(p), 4+m)
		}
		resp.applied, resp.rejected = 0, 0
		resp.ns, resp.data = resp.ns[:0], resp.data[:0]
		return nil
	default:
		return fmt.Errorf("response frame type %#x not answerable to a batch", resp.kind)
	}
}

func decodeBatchPayload(p []byte, resp *response) error {
	if len(p) < respHdrSize {
		return fmt.Errorf("batch response payload of %d bytes below its %d-byte header", len(p), respHdrSize)
	}
	resp.applied = binary.LittleEndian.Uint32(p)
	resp.rejected = binary.LittleEndian.Uint32(p[4:])
	resp.nsSum = binary.LittleEndian.Uint64(p[8:])
	resp.nsMax = binary.LittleEndian.Uint64(p[16:])
	count := int(binary.LittleEndian.Uint32(p[24:]))
	rest := p[respHdrSize:]
	if len(rest) != count*resRecSize {
		return fmt.Errorf("batch response says %d results but carries %d bytes", count, len(rest))
	}
	resp.ns = resp.ns[:0]
	resp.data = resp.data[:0]
	for i := 0; i < count; i++ {
		rec := rest[i*resRecSize:]
		resp.ns = append(resp.ns, binary.LittleEndian.Uint64(rec))
		resp.data = append(resp.data, rec[8])
	}
	return nil
}
