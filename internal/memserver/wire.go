package memserver

import (
	"encoding/binary"
	"fmt"
)

// The binary wire protocol: memctld's one data plane. This file is its
// one codec; memctld's listener, memrouterd's client listener and
// BinaryClient all encode and decode through it.
//
// Every frame is length-prefixed and little-endian:
//
//	frame := u32 bodyLen | body                    (bodyLen = len(body))
//	body  := u8 version | u8 type | payload
//
// Payloads by frame type:
//
//	BatchReq  := u32 count | count × (u64 line | u8 flags | u8 content)
//	BatchResp := u32 applied | u32 rejected | u64 nsSum | u64 nsMax |
//	             u32 count | count × (u64 ns | u8 data)
//	Nack      := u32 retryAfterSecs | <BatchResp payload: the partial
//	             accounting of the refused batch>
//	Err       := u16 code | u16 msgLen | msg bytes
//
// BatchReq is the only request shape: reads travel as ops with flag
// bit 0 set. Type bytes 0x05 and 0x06 belonged to a retired streaming
// read-batch frame and are never reused; like any unknown type they
// get a malformed-frame Err.
//
// Versioning rules: the u32 length prefix and the leading version byte
// never change meaning — they are the layer a server of any version can
// parse, which is what lets a version-skewed frame be answered with a
// typed Err frame instead of a connection drop (the server skips the
// length-delimited body it cannot interpret and stays in sync).
// Everything after the version byte is owned by that version; new op
// kinds or fields mean a new version value, never a silent re-reading
// of v1 bytes. New frame *type* values are the one additive escape
// hatch: a server that predates a type cannot misread it — it answers
// a typed malformed-frame Err and keeps the connection.
//
// Op records are fixed width (wireOpSize bytes), so the decoder indexes
// the request payload directly — no reflection, no per-op allocation —
// and the count is cross-checked against the payload length before any
// op is read: a frame whose count disagrees with its byte length is
// rejected whole.
//
// The timing side channel crosses this wire intact: per-op simulated
// latencies travel in the response payload uncompressed and
// unaggregated, so the remap-latency signal the paper's RTA reads
// survives serialization (the wire-level RTA test pins its write
// counts).

const (
	// WireVersion is the protocol version this build speaks.
	WireVersion = 1

	// WireMaxBody bounds one frame body. A length prefix above this is
	// a hard reject: the server answers with an Err frame and closes
	// the connection, since it will not stream-skip an attacker-sized
	// body to stay in sync.
	WireMaxBody = 1 << 20

	// wireMaxOps bounds the ops in one batch frame (it is what
	// WireMaxBody admits, stated in ops).
	wireMaxOps = (WireMaxBody - wireHdrSize - 4) / wireOpSize

	// wireHdrSize is the body prelude: version byte + type byte.
	wireHdrSize = 2

	// wireOpSize is one fixed-width op record: u64 line, u8 flags
	// (bit 0 = read), u8 content class.
	wireOpSize = 10

	// wireResSize is one fixed-width result record: u64 ns, u8 data.
	wireResSize = 9
)

// Frame types. 0x05 and 0x06 are retired and stay unassigned.
const (
	frameBatchReq  = 0x01 // client → server: a batch of ops
	frameBatchResp = 0x02 // server → client: per-op latencies + accounting
	frameNack      = 0x03 // server → client: backpressure (retry-after + partial accounting)
	frameErr       = 0x04 // server → client: typed error
)

// Err frame codes (WireError.Code). The name table keeps client-surfaced
// errors listable: an unknown code still renders, a known one names
// itself.
const (
	WireErrVersion   = 0x01 // frame version not spoken by this server
	WireErrMalformed = 0x02 // frame failed structural decode, or its type is not BatchReq
	WireErrTooLarge  = 0x03 // length prefix above WireMaxBody (connection closes)
	WireErrBadOp     = 0x04 // op failed semantic validation (line range / content class)
	WireErrDraining  = 0x05 // server is draining; no more work accepted
	WireErrEmpty     = 0x06 // batch carried zero ops
)

// NackRetryAfterSecs is the retry-after, in seconds, a memctld Nack
// carries.
const NackRetryAfterSecs = 1

// wireErrName maps Err codes to stable names (client error listings).
var wireErrName = map[uint16]string{
	WireErrVersion:   "unsupported-version",
	WireErrMalformed: "malformed-frame",
	WireErrTooLarge:  "frame-too-large",
	WireErrBadOp:     "bad-op",
	WireErrDraining:  "draining",
	WireErrEmpty:     "empty-batch",
}

// WireError is an Err frame surfaced by the binary client. It is a
// typed, listable error: Code names the failure class (String form in
// the message), Msg carries the server's detail line.
type WireError struct {
	Code uint16
	Msg  string
}

func (e *WireError) Error() string {
	name := wireErrName[e.Code]
	if name == "" {
		name = fmt.Sprintf("code-%d", e.Code)
	}
	known := "known codes:"
	for c := uint16(1); c <= WireErrEmpty; c++ {
		if n, ok := wireErrName[c]; ok {
			known += " " + n
		}
	}
	return fmt.Sprintf("binary wire error %s: %s (%s)", name, e.Msg, known)
}

// appendBatchReqBody appends the body (version|type|payload) of a batch
// request for ops; the caller adds the length prefix.
func appendBatchReqBody(b []byte, version uint8, ops []BatchOp) []byte {
	b = append(b, version, frameBatchReq)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ops)))
	for _, o := range ops {
		b = binary.LittleEndian.AppendUint64(b, o.Line)
		var flags uint8
		if o.Read {
			flags = 1
		}
		b = append(b, flags, o.Data)
	}
	return b
}

// DecodeRequest validates one request frame body against a space of
// lines logical lines and decodes its ops into ops[:0], reusing the
// capacity. A nonzero code is the Err frame to answer with, msg its
// static detail line. Both listeners run every frame through it, so
// they accept and refuse exactly the same frames. The decode is
// zero-copy: fixed offsets into body, no reads past len(body), and
// nothing allocated on any reject path.
//
//rbsglint:hotpath
func DecodeRequest(body []byte, lines uint64, ops []BatchOp) (_ []BatchOp, code uint16, msg string) {
	ops = ops[:0]
	switch {
	case len(body) < wireHdrSize:
		return ops, WireErrMalformed, "frame body under header size"
	case body[0] != WireVersion:
		// The frame was length-delimited, so framing is intact: the
		// connection survives a version skew.
		return ops, WireErrVersion, "server speaks version 1"
	case body[1] != frameBatchReq:
		return ops, WireErrMalformed, "frame type not batch-req"
	}
	payload := body[wireHdrSize:]
	if len(payload) < 4 {
		return ops, WireErrMalformed, "batch payload failed decode"
	}
	count := binary.LittleEndian.Uint32(payload)
	if count == 0 {
		return ops, WireErrEmpty, "batch carried no ops"
	}
	rest := payload[4:]
	if uint64(count) > wireMaxOps || uint64(len(rest)) != uint64(count)*wireOpSize {
		return ops, WireErrMalformed, "batch payload failed decode"
	}
	for off := 0; off < len(rest); off += wireOpSize {
		rec := rest[off : off+wireOpSize]
		if rec[8] > 1 {
			return ops[:0], WireErrMalformed, "batch payload failed decode"
		}
		ops = append(ops, BatchOp{Line: binary.LittleEndian.Uint64(rec), Read: rec[8] == 1, Data: rec[9]})
	}
	for _, o := range ops {
		if o.Line >= lines || o.Data > 2 {
			return ops, WireErrBadOp, "op line out of space or content class not in {0,1,2}"
		}
	}
	return ops, 0, ""
}

// RespFrame encodes r as one complete response frame into buf's
// storage: a BatchResp, or with nack set a Nack asking the client to
// retry after retryAfterSecs. Per-op latencies travel verbatim: this is
// the serialization the timing side channel crosses.
//
//rbsglint:hotpath
func RespFrame(buf []byte, r *BatchResponse, nack bool, retryAfterSecs uint32) []byte {
	b := append(buf[:0], 0, 0, 0, 0, WireVersion, frameBatchResp)
	if nack {
		b[5] = frameNack
		b = binary.LittleEndian.AppendUint32(b, retryAfterSecs)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(r.Applied))
	b = binary.LittleEndian.AppendUint32(b, uint32(r.Rejected))
	b = binary.LittleEndian.AppendUint64(b, r.NsSum)
	b = binary.LittleEndian.AppendUint64(b, r.NsMax)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(r.Ns)))
	for i, ns := range r.Ns {
		b = binary.LittleEndian.AppendUint64(b, ns)
		b = append(b, r.Data[i])
	}
	binary.LittleEndian.PutUint32(b, uint32(len(b)-4))
	return b
}

// ErrFrame encodes one complete Err frame into buf's storage. Use
// static message strings so reject paths compose nothing.
//
//rbsglint:hotpath
func ErrFrame(buf []byte, code uint16, msg string) []byte {
	b := append(buf[:0], 0, 0, 0, 0, WireVersion, frameErr)
	b = binary.LittleEndian.AppendUint16(b, code)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(msg)))
	b = append(b, msg...)
	binary.LittleEndian.PutUint32(b, uint32(len(b)-4))
	return b
}

// decodeBatchRespPayload parses a BatchResp (or the tail of a Nack)
// payload into r, reusing r's slice capacity.
func decodeBatchRespPayload(payload []byte, r *BatchResponse) uint16 {
	if len(payload) < 28 {
		return WireErrMalformed
	}
	r.Applied = int(binary.LittleEndian.Uint32(payload))
	r.Rejected = int(binary.LittleEndian.Uint32(payload[4:]))
	r.NsSum = binary.LittleEndian.Uint64(payload[8:])
	r.NsMax = binary.LittleEndian.Uint64(payload[16:])
	count := binary.LittleEndian.Uint32(payload[24:])
	rest := payload[28:]
	if uint64(len(rest)) != uint64(count)*wireResSize {
		return WireErrMalformed
	}
	r.Ns = resizeZeroed(r.Ns, int(count))
	r.Data = resizeZeroed(r.Data, int(count))
	for i := range int(count) {
		rec := rest[i*wireResSize:]
		r.Ns[i] = binary.LittleEndian.Uint64(rec)
		r.Data[i] = rec[8]
	}
	return 0
}

// decodeErrBody parses an Err frame payload.
func decodeErrBody(payload []byte) (*WireError, bool) {
	if len(payload) < 4 {
		return nil, false
	}
	code := binary.LittleEndian.Uint16(payload)
	n := int(binary.LittleEndian.Uint16(payload[2:]))
	if len(payload) < 4+n {
		return nil, false
	}
	return &WireError{Code: code, Msg: string(payload[4 : 4+n])}, true
}

// resizeZeroed returns s with length n and every element zeroed
// (rejected batch ops must report zero, not a previous request's data).
//
//rbsglint:hotpath
func resizeZeroed[T uint8 | uint64](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
