package memrouter

import (
	"context"
	"errors"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"securityrbsg/internal/memserver"
	"securityrbsg/internal/stats"
)

// shardSpec is one test shard's memserver config.
func shardConfig(lines uint64, seed uint64) memserver.Config {
	return memserver.Config{
		Banks: 1, Lines: lines, Scheme: memserver.SchemeRBSG,
		Regions: 8, Interval: 4, Seed: seed,
		QueueDepth: 64, SnapshotEvery: 1,
	}
}

// startShard boots one memctld-shaped shard: executors, binary listener,
// HTTP control plane. Returns the binary address and the control
// host:port.
func startShard(t *testing.T, cfg memserver.Config) (*memserver.Server, string, string) {
	t.Helper()
	s, err := memserver.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("shard drain: %v", err)
		}
	})
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
			t.Errorf("shard binary shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("shard serve: %v", err)
		}
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ln.Addr().String(), strings.TrimPrefix(ts.URL, "http://")
}

// startRouter boots a router over the given shard addresses and
// returns it, a connected client, and the router's control host:port.
func startRouter(t *testing.T, cfg Config) (*Router, *memserver.BinaryClient, string) {
	t.Helper()
	r, addr := serveRouter(t, cfg)
	ts := httptest.NewServer(r.Handler())
	t.Cleanup(ts.Close)
	c, err := memserver.DialBinary(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return r, c, strings.TrimPrefix(ts.URL, "http://")
}

// serveRouter boots a router and its binary listener and returns it and
// the listener's address; cleanup shuts it down.
func serveRouter(t *testing.T, cfg Config) (*Router, string) {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- r.ServeBinary(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := r.Shutdown(ctx); err != nil {
			t.Errorf("router shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("router serve: %v", err)
		}
	})
	return r, ln.Addr().String()
}

// threeShardRouter is the standard test topology: 3 single-bank shards
// of 256 lines each, identity group map, control planes wired up.
func threeShardRouter(t *testing.T, conns, window int) (*Router, *memserver.BinaryClient, string) {
	t.Helper()
	var addrs, ctls []string
	for i := 0; i < 3; i++ {
		_, bin, ctl := startShard(t, shardConfig(256, uint64(5+i)))
		addrs = append(addrs, bin)
		ctls = append(ctls, ctl)
	}
	return startRouter(t, Config{
		Shards: addrs, ShardControl: ctls,
		Lines: 768, Groups: 3, GroupMap: []int{0, 1, 2},
		Conns: conns, Window: window,
		HealthEvery: 100 * time.Millisecond,
	})
}

// TestRouterSingleShardMatchesDirect: a one-shard router is a
// transparent proxy — per-op latencies, data, and accounting are
// byte-identical to a direct connection against an identically seeded
// shard. This is the router's differential base case.
func TestRouterSingleShardMatchesDirect(t *testing.T) {
	_, direct, _ := startShard(t, shardConfig(256, 5))
	dc, err := memserver.DialBinary(direct)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dc.Close() })

	_, bin, ctl := startShard(t, shardConfig(256, 5))
	_, rc, _ := startRouter(t, Config{
		Shards: []string{bin}, ShardControl: []string{ctl}, Lines: 256,
	})

	rng := stats.NewRNG(3)
	ops := make([]memserver.BatchOp, 64)
	for round := 0; round < 5; round++ {
		for i := range ops {
			ops[i] = memserver.BatchOp{Line: rng.Uint64n(256), Data: uint8(rng.Uint64n(3))}
			if rng.Float64() < 0.25 {
				ops[i].Read = true
				ops[i].Data = 0
			}
		}
		dr, err := dc.Batch(ops)
		if err != nil {
			t.Fatal(err)
		}
		rr, err := rc.Batch(ops)
		if err != nil {
			t.Fatal(err)
		}
		if dr.Applied != rr.Applied || dr.Rejected != rr.Rejected ||
			dr.NsSum != rr.NsSum || dr.NsMax != rr.NsMax {
			t.Fatalf("round %d accounting: direct %+v != routed %+v", round, dr, rr)
		}
		for i := range ops {
			if dr.Ns[i] != rr.Ns[i] || dr.Data[i] != rr.Data[i] {
				t.Fatalf("round %d op %d: direct ns=%d d=%d, routed ns=%d d=%d",
					round, i, dr.Ns[i], dr.Data[i], rr.Ns[i], rr.Data[i])
			}
		}
	}
}

// TestRouterSplitBatchRoundTrip: batches spanning all three shards
// write and read back correctly, and the routing metrics attribute the
// ops to the right shards.
func TestRouterSplitBatchRoundTrip(t *testing.T) {
	r, c, _ := threeShardRouter(t, 2, 8)

	ops := make([]memserver.BatchOp, 0, 96)
	for i := 0; i < 96; i++ {
		line := uint64(i) * 8 // spreads over [0,768): all three shards
		ops = append(ops, memserver.BatchOp{Line: line, Data: uint8(line % 3)})
	}
	if _, err := c.Batch(ops); err != nil {
		t.Fatal(err)
	}
	reads := make([]memserver.BatchOp, len(ops))
	for i, o := range ops {
		reads[i] = memserver.BatchOp{Line: o.Line, Read: true}
	}
	resp, err := c.Batch(reads)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range ops {
		if resp.Data[i] != o.Data {
			t.Fatalf("line %d read back %d, want %d", o.Line, resp.Data[i], o.Data)
		}
		if resp.Ns[i] == 0 {
			t.Fatalf("line %d: zero latency crossed the router", o.Line)
		}
	}

	for s := 0; s < 3; s++ {
		if got := r.pools[s].ops.Load(); got != 64 {
			t.Fatalf("shard %d routed %d ops, want 64 (32 writes + 32 reads)", s, got)
		}
	}
	m := memserver.ParseMetrics(r.MetricsText())
	if m["router_split_frames_total"] != 2 {
		t.Fatalf("router_split_frames_total = %v, want 2", m["router_split_frames_total"])
	}
	if m["router_line_ops_total"] != 192 {
		t.Fatalf("router_line_ops_total = %v, want 192", m["router_line_ops_total"])
	}
	// The shard passthrough aggregates: summed memctld_lines must be
	// the whole 768-line deployment.
	if m["memctld_lines"] != 768 {
		t.Fatalf("aggregated memctld_lines = %v, want 768", m["memctld_lines"])
	}
}

// TestRouterPoolWindowInvariance: pool size and pipeline window are
// performance knobs, never semantics — the same lockstep op stream
// over (1,1), (2,4), (3,8) topologies yields identical latencies and
// data.
func TestRouterPoolWindowInvariance(t *testing.T) {
	type result struct {
		ns   []uint64
		data []uint8
	}
	run := func(conns, window int) result {
		_, c, _ := threeShardRouter(t, conns, window)
		rng := stats.NewRNG(17)
		var out result
		ops := make([]memserver.BatchOp, 48)
		for round := 0; round < 6; round++ {
			for i := range ops {
				ops[i] = memserver.BatchOp{Line: rng.Uint64n(768), Data: uint8(rng.Uint64n(3))}
				if i%4 == 0 {
					ops[i].Read = true
					ops[i].Data = 0
				}
			}
			resp, err := c.Batch(ops)
			if err != nil {
				t.Fatal(err)
			}
			out.ns = append(out.ns, resp.Ns...)
			out.data = append(out.data, resp.Data...)
		}
		return out
	}
	base := run(1, 1)
	for _, tc := range []struct{ conns, window int }{{2, 4}, {3, 8}} {
		got := run(tc.conns, tc.window)
		for i := range base.ns {
			if got.ns[i] != base.ns[i] || got.data[i] != base.data[i] {
				t.Fatalf("conns=%d window=%d op %d: ns=%d d=%d, want ns=%d d=%d",
					tc.conns, tc.window, i, got.ns[i], got.data[i], base.ns[i], base.data[i])
			}
		}
	}
}

// TestRouterPipelinedClient: a pipelined client window crosses the
// router with in-order completion, same as against a shard directly.
func TestRouterPipelinedClient(t *testing.T) {
	_, c, _ := threeShardRouter(t, 2, 8)
	const window = 12
	for i := 0; i < window; i++ {
		// Each frame spans all three shards.
		ops := []memserver.BatchOp{
			{Line: uint64(i), Data: uint8(i % 3)},
			{Line: 256 + uint64(i), Data: uint8((i + 1) % 3)},
			{Line: 512 + uint64(i), Data: uint8((i + 2) % 3)},
		}
		if err := c.SendBatch(ops); err != nil {
			t.Fatal(err)
		}
	}
	var resp memserver.BatchResponse
	for i := 0; i < window; i++ {
		if err := c.RecvBatch(&resp); err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if resp.Applied != 3 {
			t.Fatalf("frame %d applied %d, want 3", i, resp.Applied)
		}
	}
	// Read everything back lockstep to pin the writes landed.
	for i := 0; i < window; i++ {
		for s := 0; s < 3; s++ {
			ops := []memserver.BatchOp{{Line: uint64(s*256 + i), Read: true}}
			resp, err := c.Batch(ops)
			if err != nil {
				t.Fatal(err)
			}
			if want := uint8((i + s) % 3); resp.Data[0] != want {
				t.Fatalf("shard %d line %d: data %d, want %d", s, i, resp.Data[0], want)
			}
		}
	}
}

// TestRouterHealthz: all shards up → healthy; a line-count mismatch
// between the map and a shard is an unhealthy deployment, loudly.
func TestRouterHealthz(t *testing.T) {
	r, _, _ := threeShardRouter(t, 1, 4)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if ok, _ := r.Healthy(); ok {
			break
		}
		if time.Now().After(deadline) {
			_, detail := r.Healthy()
			t.Fatalf("router never became healthy: %s", detail)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Misconfigured topology: shard sized 512 where the map wants 256.
	_, bin, ctl := startShard(t, shardConfig(512, 9))
	r2, err := New(Config{
		Shards: []string{bin}, ShardControl: []string{ctl}, Lines: 256,
		HealthEvery: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	r2.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		r2.Shutdown(ctx)
	})
	deadline = time.Now().Add(5 * time.Second)
	for {
		ok, detail := r2.Healthy()
		if !ok && strings.Contains(detail, "map assigns") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("line-count mismatch not detected (ok=%v detail=%q)", ok, detail)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestRouterServeBinaryAfterShutdown: a router told to drain before its
// ServeBinary goroutine got going must not leave that goroutine parked
// in Accept. ServeBinary returns nil at once and closes the listener.
func TestRouterServeBinaryAfterShutdown(t *testing.T) {
	_, bin, ctl := startShard(t, shardConfig(256, 6))
	r, err := New(Config{Shards: []string{bin}, ShardControl: []string{ctl}, Lines: 256})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := r.Shutdown(ctx); err != nil {
		t.Fatalf("router shutdown: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() { done <- r.ServeBinary(ln) }()
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

// TestRouterDrainingGoodbye: after Shutdown begins, a connected client
// is told the router is draining with a typed Err frame.
func TestRouterDrainingGoodbye(t *testing.T) {
	_, bin, ctl := startShard(t, shardConfig(256, 5))
	r, c, _ := startRouter(t, Config{
		Shards: []string{bin}, ShardControl: []string{ctl}, Lines: 256,
	})
	if _, err := c.Batch([]memserver.BatchOp{{Line: 1, Data: 1}}); err != nil {
		t.Fatal(err)
	}
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		r.Shutdown(ctx)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := c.Batch([]memserver.BatchOp{{Line: 1, Data: 1}})
		if err != nil {
			if we, ok := err.(*memserver.WireError); ok && we.Code == memserver.WireErrDraining {
				return // the goodbye frame arrived
			}
			return // connection already torn down: also a clean outcome
		}
		if time.Now().After(deadline) {
			t.Fatal("router kept serving long after Shutdown")
		}
	}
}
