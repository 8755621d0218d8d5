package memserver

import (
	"sync"
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

// BenchmarkBinaryClientServeUniform is serve_uniform over loopback: two
// BinaryClient connections, each keeping 8 frames of 256 ops in flight,
// against 64 banks of 2^12 lines under srbsg+adaptive, with the
// workload's op mix and line ownership (uniformOp; connection c owns
// the lines whose bank row is c mod 2). One op is one frame; the
// connections split b.N. It is the rung above
// BenchmarkBinaryBatchServeUniform: the same server work plus the
// sockets and connection loops, whose reader and writer goroutines
// leave a P idle at times for the executors' wake-ups. Each connection
// is warmed with one window before the timer, so allocs/op counts
// steady-state frames.
func BenchmarkBinaryClientServeUniform(b *testing.B) {
	const (
		conns, window, batch = 2, 8, 256
		banks, lines         = 64, 64 << 12
	)
	addr := startBinaryListener(b, runServer(b, Config{
		Banks: banks, Lines: lines, Scheme: SchemeAdaptive,
		Regions: 32, Interval: 100, Stages: 7, Seed: 1, QueueDepth: 256,
	}))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for c := range conns {
		cl := dialBinary(b, addr)
		rng := stats.NewRNG(uint64(3 + c))
		ops := make([]BatchOp, batch)
		var resp BatchResponse
		// frames sends n frames, keeping window of them in flight.
		frames := func(n int) error {
			inflight := 0
			for i := 0; i < n || inflight > 0; {
				if i == n || inflight == window {
					if err := cl.RecvBatch(&resp); err != nil {
						return err
					}
					inflight--
					continue
				}
				for k := range ops {
					_, ops[k] = uniformOp(rng, uint64(c), conns, banks, lines/conns)
				}
				if err := cl.SendBatch(ops); err != nil {
					return err
				}
				i++
				inflight++
			}
			return nil
		}
		if err := frames(window); err != nil {
			b.Fatal(err)
		}
		n := (b.N + conns - 1 - c) / conns // frames c, c+conns, ... of b.N
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := frames(n); err != nil {
				b.Error(err)
			}
		}()
	}
	b.ReportAllocs()
	b.ResetTimer()
	close(start)
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "lines/s")
}
