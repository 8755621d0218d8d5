package memserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"

	"securityrbsg/internal/stats"
)

// BenchmarkMemserverBatchWrite measures the service hot path — JSON
// decode, per-bank coalescing, actor round trip, JSON encode — with no
// sockets: requests go straight into the handler. This is the number
// every future transport or queueing change gets compared against
// (bench-smoke in CI executes it once on every push).
func BenchmarkMemserverBatchWrite(b *testing.B) {
	const batch = 256
	s := MustNew(Config{
		Banks: 8, Lines: 8 << 14, Scheme: SchemeRBSGDetector,
		Regions: 32, Interval: 100, Seed: 1, QueueDepth: 256,
	})
	s.Start()
	handler := s.Handler()

	rng := stats.NewRNG(3)
	ops := make([]BatchOp, batch)
	for i := range ops {
		ops[i] = BatchOp{Line: rng.Uint64n(s.Config().Lines), Data: 2}
	}
	body, err := json.Marshal(BatchRequest{Ops: ops})
	if err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/batch", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code != 200 {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "lines/s")
}

// BenchmarkMemserverBatchWriteAdaptive is the same hot path with the
// adaptive security level in the loop (perf-gate guard: the bench gate
// fails if its allocs/op ever exceeds the static-scheme batch path's).
// The controller must ride the writes the scheme already does — its
// monitor feed and round-boundary checks live inside NoteWrite, and a
// level decision only redraws keys the remap round was redrawing
// anyway — so steady-state batches allocate nothing beyond what
// BenchmarkMemserverBatchWrite pays.
func BenchmarkMemserverBatchWriteAdaptive(b *testing.B) {
	const batch = 256
	s := MustNew(Config{
		Banks: 8, Lines: 8 << 14, Scheme: SchemeAdaptive,
		Regions: 32, Interval: 100, Stages: 4, Seed: 1, QueueDepth: 256,
	})
	s.Start()
	handler := s.Handler()

	rng := stats.NewRNG(3)
	ops := make([]BatchOp, batch)
	for i := range ops {
		ops[i] = BatchOp{Line: rng.Uint64n(s.Config().Lines), Data: 2}
	}
	body, err := json.Marshal(BatchRequest{Ops: ops})
	if err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/batch", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code != 200 {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "lines/s")
}

// BenchmarkBinaryBatchWrite is the binary-protocol counterpart of
// BenchmarkMemserverBatchWrite: the same banks, the same 256-op batch
// shape, but frames through processFrame — the whole binary hot path
// minus socket I/O, exactly as the JSON bench skips sockets by calling
// the handler. The bench gate holds this to ≥3× the JSON path's
// lines/s: if framing ever grows JSON-shaped overhead, the gate sees
// it.
func BenchmarkBinaryBatchWrite(b *testing.B) {
	const batch = 256
	s := MustNew(Config{
		Banks: 8, Lines: 8 << 14, Scheme: SchemeRBSGDetector,
		Regions: 32, Interval: 100, Seed: 1, QueueDepth: 256,
	})
	s.Start()

	rng := stats.NewRNG(3)
	ops := make([]BatchOp, batch)
	for i := range ops {
		ops[i] = BatchOp{Line: rng.Uint64n(s.Config().Lines), Data: 2}
	}
	body := appendBatchReqBody(nil, wireVersion, ops)
	sc := &connScratch{batch: getBatchScratch(s.cfg.Banks)}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, fatal := s.processFrame(sc, body)
		if fatal || len(out) < 4+wireHdrSize || out[4+1] != frameBatchResp {
			b.Fatalf("frame %d: fatal=%v out=% x", i, fatal, out[:min(len(out), 8)])
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "lines/s")
}

// BenchmarkBinaryDecodeFrame isolates the wire decode: one 256-op
// frame body into the pooled op scratch. The gate pins its allocs/op
// at zero — the decode path must stay alloc-free or the protocol has
// lost its reason to exist.
func BenchmarkBinaryDecodeFrame(b *testing.B) {
	const batch = 256
	rng := stats.NewRNG(3)
	ops := make([]BatchOp, batch)
	for i := range ops {
		ops[i] = BatchOp{Line: rng.Uint64n(8 << 14), Data: 2}
		if i%5 == 0 {
			ops[i].Read = true
			ops[i].Data = 0
		}
	}
	payload := appendBatchReqBody(nil, wireVersion, ops)[wireHdrSize:]
	dst := make([]BatchOp, 0, batch)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decoded, code := decodeBatchReq(payload, dst)
		if code != 0 || len(decoded) != batch {
			b.Fatalf("decode: code %d, %d ops", code, len(decoded))
		}
		dst = decoded
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "lines/s")
}

// BenchmarkMemserverSingleWrite is the uncoalesced per-request cost:
// one line per HTTP round trip through the handler.
func BenchmarkMemserverSingleWrite(b *testing.B) {
	s := MustNew(Config{
		Banks: 8, Lines: 8 << 14, Scheme: SchemeRBSGDetector,
		Regions: 32, Interval: 100, Seed: 1, QueueDepth: 256,
	})
	s.Start()
	handler := s.Handler()
	body, _ := json.Marshal(WriteRequest{Line: 12345, Data: 2})

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/write", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code != 200 {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
}

// BenchmarkActorPublish is the telemetry rung: one full publish — the
// O(1) counters plus the exact wear-percentile selection over every line
// — on a bank carrying hammer-shaped wear (0–50 writes per line, one
// line near 800k), at serve_uniform's and serve_attack_large's bank
// sizes. ns/line is the selection's per-line cost; the one alloc/op is
// the immutable snapshot readers hold.
func BenchmarkActorPublish(b *testing.B) {
	for _, lines := range []uint64{1 << 12, 1 << 18} {
		b.Run(fmt.Sprintf("lines=%d", lines), func(b *testing.B) {
			s := MustNew(Config{Banks: 1, Lines: lines, Scheme: SchemeAdaptive, Seed: 1})
			a := s.actors[0]
			applyWear(a.ctrl.Bank(), hammerShaped(stats.NewRNG(5), int(lines)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.publish(true)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(lines), "ns/line")
		})
	}
}
