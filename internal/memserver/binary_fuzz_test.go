package memserver

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// retiredReadReq builds a frame body in the shape of the retired
// streaming read-batch request (type 0x05: u32 count | count × u64
// line). Servers must refuse it like any unknown type.
func retiredReadReq(lines ...uint64) []byte {
	b := binary.LittleEndian.AppendUint32([]byte{WireVersion, 0x05}, uint32(len(lines)))
	for _, l := range lines {
		b = binary.LittleEndian.AppendUint64(b, l)
	}
	return b
}

// FuzzBinaryFrameDecode throws arbitrary frame bodies at a memctld
// connection handler: it must never panic, never read past the body,
// and must hold the round-trip property — any body the strict decoder
// accepts re-encodes to the identical bytes (there is exactly one wire
// form per batch, so nothing an attacker appends, pads, or re-flags
// survives decode unnoticed). The retired type bytes 0x05 and 0x06
// must always be refused as malformed.
func FuzzBinaryFrameDecode(f *testing.F) {
	// Seed corpus: the shapes the protocol defines, plus each reject
	// class the tests pin — truncated, version-skewed, wrong-typed,
	// count-mismatched, flag-corrupted, oversized-count bodies, and the
	// retired read-batch request.
	valid := appendBatchReqBody(nil, WireVersion, []BatchOp{
		{Line: 1}, {Line: 4095, Read: true}, {Line: 7, Data: 2},
	})
	f.Add(valid)
	f.Add(valid[:len(valid)-3])                                         // truncated mid-op
	f.Add([]byte{})                                                     // empty body
	f.Add([]byte{WireVersion})                                          // no type byte
	f.Add([]byte{WireVersion + 1, frameBatchReq})                       // version skew
	f.Add([]byte{WireVersion, frameErr})                                // wrong direction
	f.Add([]byte{WireVersion, 0xff, 1, 2, 3})                           // unknown type
	f.Add(appendBatchReqBody(nil, WireVersion, nil))                    // zero ops
	count := []byte{WireVersion, frameBatchReq, 0xff, 0xff, 0xff, 0xff} // 4G ops, no payload
	f.Add(count)
	flag := appendBatchReqBody(nil, WireVersion, []BatchOp{{Line: 9}})
	flag[len(flag)-2] = 0x80 // flags outside {0,1}
	f.Add(flag)
	retired := retiredReadReq(0, 3, 2047)
	f.Add(retired)
	f.Add(retired[:len(retired)-5])                          // truncated mid-line
	f.Add(retiredReadReq())                                  // zero reads
	f.Add([]byte{WireVersion, 0x06, 0xff, 0xff, 0xff, 0xff}) // the retired response type
	f.Add(retiredReadReq(1 << 62))                           // line out of space

	s := MustNew(Config{
		Banks: 2, Lines: 2048, Scheme: SchemeNone,
		QueueDepth: 16, SnapshotEvery: 1,
	})
	s.Start()
	h := s.newBinConn()

	f.Fuzz(func(t *testing.T, body []byte) {
		// The handler on the raw body: must not panic and must always
		// answer (every frame gets a response frame, even the ones that
		// cost the connection).
		if out, _ := h.Begin(0, body); len(out) < 4+wireHdrSize {
			t.Fatalf("handler answered a %d-byte frame, below prefix+header", len(out))
		}

		// Round-trip property on the strict decoder: accepted bodies
		// re-encode byte-identically.
		ops, code, _ := DecodeRequest(body, math.MaxUint64, nil)
		if code == 0 {
			re := appendBatchReqBody(nil, WireVersion, ops)
			if !bytes.Equal(re, body) {
				t.Fatalf("accepted body is not canonical:\n in % x\nout % x", body, re)
			}
		}
		if len(body) >= wireHdrSize && body[0] == WireVersion && (body[1] == 0x05 || body[1] == 0x06) && code != WireErrMalformed {
			t.Fatalf("retired type %#x answered code %d, want malformed", body[1], code)
		}
	})
}
