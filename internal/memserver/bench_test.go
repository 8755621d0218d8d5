package memserver

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"securityrbsg/internal/stats"
)

// benchBinaryBatch drives 256-op write frames through a connection
// handler's Begin: the whole binary hot path — decode, per-bank
// coalescing, executor round trip, encode — minus socket I/O.
func benchBinaryBatch(b *testing.B, cfg Config) {
	const batch = 256
	s := MustNew(cfg)
	s.Start()

	rng := stats.NewRNG(3)
	ops := make([]BatchOp, batch)
	for i := range ops {
		ops[i] = BatchOp{Line: rng.Uint64n(s.Config().Lines), Data: 2}
	}
	body := appendBatchReqBody(nil, WireVersion, ops)
	h := s.newBinConn()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, fatal := h.Begin(0, body)
		if fatal || len(out) < 4+wireHdrSize || out[4+1] != frameBatchResp {
			b.Fatalf("frame %d: fatal=%v out=% x", i, fatal, out[:min(len(out), 8)])
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "lines/s")
}

// BenchmarkBinaryBatchWrite is the service rung of the ladder: frames
// through a memctld connection handler (benchBinaryBatch) on 8 banks
// under the default scheme. The bench gate pins it at 0 allocs/op.
func BenchmarkBinaryBatchWrite(b *testing.B) {
	benchBinaryBatch(b, Config{
		Banks: 8, Lines: 8 << 14, Scheme: SchemeRBSGDetector,
		Regions: 32, Interval: 100, Seed: 1, QueueDepth: 256,
	})
}

// BenchmarkBinaryBatchWriteAdaptive is the same hot path with the
// adaptive security level in the loop (perf-gate guard: the bench gate
// requires its allocs/op to match BenchmarkBinaryBatchWrite's 0). The
// controller must ride the writes the scheme already does — its
// monitor feed and round-boundary checks live inside NoteWrite, and a
// level decision only redraws keys the remap round was redrawing
// anyway — so steady-state frames allocate nothing.
func BenchmarkBinaryBatchWriteAdaptive(b *testing.B) {
	benchBinaryBatch(b, Config{
		Banks: 8, Lines: 8 << 14, Scheme: SchemeAdaptive,
		Regions: 32, Interval: 100, Stages: 4, Seed: 1, QueueDepth: 256,
	})
}

// BenchmarkBinaryBatchServeUniform is the executor-handoff rung, at
// serve_uniform's geometry and mix: 64 banks of 2^12 lines under
// srbsg+adaptive and 256-op frames with 25% reads, so every frame makes
// ~63 bank runs of ~4 ops, sends them to the executors in one message
// each and waits for them. Each
// b.RunParallel goroutine drives its own connection handler's Begin,
// and SetParallelism(1) runs one per P: two submitters on a 2-core
// host, like the benchmark's two connections. The handlers are built
// and warmed before the timer, so allocs/op counts steady-state frames.
func BenchmarkBinaryBatchServeUniform(b *testing.B) {
	const batch, banks, lines = 256, 64, 64 << 12
	s := MustNew(Config{
		Banks: banks, Lines: lines, Scheme: SchemeAdaptive,
		Regions: 32, Interval: 100, Stages: 7, Seed: 1, QueueDepth: 256,
	})
	s.Start()
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	type submitter struct {
		h    FrameHandler
		body []byte
	}
	subs := make([]submitter, runtime.GOMAXPROCS(0))
	for k := range subs {
		rng := stats.NewRNG(uint64(3 + k))
		ops := make([]BatchOp, batch)
		for i := range ops {
			ops[i] = BatchOp{Line: rng.Uint64n(lines), Data: uint8(rng.Uint64n(3))}
			if rng.Uint64n(4) == 0 {
				ops[i] = BatchOp{Line: ops[i].Line, Read: true}
			}
		}
		subs[k] = submitter{h: s.newBinConn(), body: appendBatchReqBody(nil, WireVersion, ops)}
		subs[k].h.Begin(0, subs[k].body)
	}
	var next atomic.Int32
	b.SetParallelism(1)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		sub := subs[next.Add(1)-1]
		for pb.Next() {
			out, fatal := sub.h.Begin(0, sub.body)
			if fatal || len(out) < 4+wireHdrSize || out[4+1] != frameBatchResp {
				b.Errorf("fatal=%v out=% x", fatal, out[:min(len(out), 8)])
				return
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "lines/s")
}

// BenchmarkBinaryDecodeFrame isolates the wire decode: one 256-op
// frame body validated and decoded into a reused op scratch. The gate pins its allocs/op
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
	body := appendBatchReqBody(nil, WireVersion, ops)
	dst := make([]BatchOp, 0, batch)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decoded, code, _ := DecodeRequest(body, 8<<14, dst)
		if code != 0 || len(decoded) != batch {
			b.Fatalf("decode: code %d, %d ops", code, len(decoded))
		}
		dst = decoded
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "lines/s")
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
			bs := s.banks[0]
			applyWear(bs.ctrl.Bank(), hammerShaped(stats.NewRNG(5), int(lines)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bs.publish(true)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(lines), "ns/line")
		})
	}
}
