package memserver

import (
	"testing"

	"securityrbsg/internal/stats"
)

// Client-side pipelining benchmarks: the same server, the same 256-op
// batch shape, over a REAL loopback TCP connection — the socket round
// trip is the point. Lockstep pays one RTT per batch; the pipelined
// client keeps a window of frames in flight, so the RTT amortizes
// across the window and throughput approaches the server's serving
// rate. The bench gate asserts pipelined > lockstep: if the windowed
// client ever degrades to one-frame-at-a-time, the gate sees it.

func benchOps(lines uint64, batch int) []BatchOp {
	rng := stats.NewRNG(3)
	ops := make([]BatchOp, batch)
	for i := range ops {
		ops[i] = BatchOp{Line: rng.Uint64n(lines), Data: 2}
	}
	return ops
}

// BenchmarkBinaryClientLockstep: one batch in flight — send, wait out
// the round trip, repeat. The baseline the pipelined client must beat.
func BenchmarkBinaryClientLockstep(b *testing.B) {
	const batch = 256
	c := dialBinary(b, startBinaryListener(b, runServer(b, Config{
		Banks: 8, Lines: 8 << 14, Scheme: SchemeRBSGDetector,
		Regions: 32, Interval: 100, Seed: 1, QueueDepth: 256,
	})))
	ops := benchOps(8<<14, batch)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Batch(ops); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "lines/s")
}

// BenchmarkBinaryClientPipelined: the same traffic with a 16-frame
// window on one connection (send/receive halves are disjoint by the
// client's contract, so a plain in-order drain needs no goroutines).
func BenchmarkBinaryClientPipelined(b *testing.B) {
	const (
		batch  = 256
		window = 16
	)
	c := dialBinary(b, startBinaryListener(b, runServer(b, Config{
		Banks: 8, Lines: 8 << 14, Scheme: SchemeRBSGDetector,
		Regions: 32, Interval: 100, Seed: 1, QueueDepth: 256,
	})))
	ops := benchOps(8<<14, batch)

	var resp BatchResponse
	inflight := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if inflight == window {
			if err := c.RecvBatch(&resp); err != nil {
				b.Fatal(err)
			}
			inflight--
		}
		if err := c.SendBatch(ops); err != nil {
			b.Fatal(err)
		}
		inflight++
	}
	for ; inflight > 0; inflight-- {
		if err := c.RecvBatch(&resp); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "lines/s")
}
