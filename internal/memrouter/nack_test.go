package memrouter

import (
	"context"
	"math"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"securityrbsg/internal/memserver"
)

// Fake shards: memserver's connection server with a scripted frame
// handler, the only way to get deterministic Nack and failure
// injection, since real shards Nack only under racy queue pressure.

const (
	fakeOK = iota
	fakeNack
	fakeDrop // read the frame, close the connection: transport loss
)

// fakeShard answers frames by its mode. OK responses synthesize per-op
// results from the shard-LOCAL line (ns = 1000·local+7, data =
// local%3), so tests can verify the router rewrote lines correctly AND
// scattered results back to the right client slots.
type fakeShard struct {
	mode      int
	retrySecs uint32
	out       [memserver.FrameWindow][]byte
}

func (f *fakeShard) Begin(slot int, body []byte) ([]byte, bool) {
	if f.mode == fakeDrop {
		return []byte{}, true // close without an answer
	}
	ops, code, msg := memserver.DecodeRequest(body, math.MaxUint64, nil)
	if code != 0 {
		f.out[slot] = memserver.ErrFrame(f.out[slot], code, msg)
		return f.out[slot], false
	}
	var resp memserver.BatchResponse
	resp.Reset(len(ops))
	if f.mode == fakeNack {
		resp.Rejected = len(ops)
	} else {
		resp.Applied = len(ops)
		for i, o := range ops {
			resp.Ns[i] = o.Line*1000 + 7
			resp.Data[i] = uint8(o.Line % 3)
			resp.NsSum += resp.Ns[i]
			resp.NsMax = max(resp.NsMax, resp.Ns[i])
		}
	}
	f.out[slot] = memserver.RespFrame(f.out[slot], &resp, f.mode == fakeNack, f.retrySecs)
	return f.out[slot], false
}

func (f *fakeShard) Finish(slot int) []byte { return f.out[slot] }

// startFakeShard serves the binary protocol with a scripted behavior
// and returns its address.
func startFakeShard(t *testing.T, mode int, retrySecs uint32) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cs := memserver.NewConnServer(func() memserver.FrameHandler {
		return &fakeShard{mode: mode, retrySecs: retrySecs}
	}, new(atomic.Uint64), "fake shard draining")
	go cs.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := cs.Shutdown(ctx); err != nil {
			t.Errorf("fake shard shutdown: %v", err)
		}
	})
	return ln.Addr().String()
}

// TestRouterNackAggregation: one shard Nacks, the others answer — the
// client sees ONE Nack with the largest Retry-After, and the healthy
// shards' per-op results are all present at their original positions.
func TestRouterNackAggregation(t *testing.T) {
	addrs := []string{
		startFakeShard(t, fakeOK, 0),
		startFakeShard(t, fakeNack, 3),
		startFakeShard(t, fakeOK, 0),
	}
	_, c, _ := startRouter(t, Config{
		Shards: addrs, Lines: 768, Groups: 3, GroupMap: []int{0, 1, 2},
		Conns: 1, Window: 4,
	})

	// Two ops per shard, interleaved so idx scatter is non-trivial.
	ops := []memserver.BatchOp{
		{Line: 10, Data: 1},  // shard 0, local 10
		{Line: 300, Data: 2}, // shard 1 (nacked), local 44
		{Line: 520, Data: 1}, // shard 2, local 8
		{Line: 11, Data: 2},  // shard 0, local 11
		{Line: 301, Data: 1}, // shard 1 (nacked), local 45
		{Line: 521, Data: 2}, // shard 2, local 9
	}
	_, err := c.Batch(ops)
	be, ok := err.(*memserver.BackpressureError)
	if !ok {
		t.Fatalf("want BackpressureError, got %v", err)
	}
	if be.RetryAfter != 3*time.Second {
		t.Fatalf("aggregated retry-after %v, want the max across shards (3s)", be.RetryAfter)
	}
	r := be.Resp
	if r == nil {
		t.Fatal("aggregated Nack carries no partial accounting")
	}
	if r.Applied != 4 || r.Rejected != 2 {
		t.Fatalf("applied=%d rejected=%d, want 4/2", r.Applied, r.Rejected)
	}
	wantNs := []uint64{10*1000 + 7, 0, 8*1000 + 7, 11*1000 + 7, 0, 9*1000 + 7}
	wantData := []uint8{10 % 3, 0, 8 % 3, 11 % 3, 0, 9 % 3}
	for i := range ops {
		if r.Ns[i] != wantNs[i] || r.Data[i] != wantData[i] {
			t.Fatalf("op %d: ns=%d data=%d, want %d/%d (dropped or reordered in the merge)",
				i, r.Ns[i], r.Data[i], wantNs[i], wantData[i])
		}
	}
}

// TestRouterShardLossNacks: a shard that dies mid-frame costs its ops
// (rejected, Nack to the client) but never the other shards' results —
// and the router recovers when only healthy shards are addressed.
func TestRouterShardLossNacks(t *testing.T) {
	addrs := []string{
		startFakeShard(t, fakeOK, 0),
		startFakeShard(t, fakeDrop, 0),
	}
	r, c, _ := startRouter(t, Config{
		Shards: addrs, Lines: 512, Groups: 2, GroupMap: []int{0, 1},
		Conns: 1, Window: 4,
	})
	ops := []memserver.BatchOp{
		{Line: 7, Data: 1},   // shard 0
		{Line: 300, Data: 2}, // shard 1: connection drops on receipt
	}
	_, err := c.Batch(ops)
	be, ok := err.(*memserver.BackpressureError)
	if !ok {
		t.Fatalf("want BackpressureError after shard loss, got %v", err)
	}
	if be.Resp == nil || be.Resp.Applied != 1 || be.Resp.Rejected != 1 {
		t.Fatalf("partial accounting after shard loss: %+v", be.Resp)
	}
	if be.Resp.Ns[0] != 7*1000+7 {
		t.Fatalf("healthy shard's result lost: ns=%v", be.Resp.Ns)
	}
	if r.pools[1].errs.Load() == 0 {
		t.Fatal("shard 1 loss not counted in router_shard_errors_total")
	}

	// Frames that avoid the dead shard keep working.
	resp, err := c.Batch([]memserver.BatchOp{{Line: 8, Data: 1}})
	if err != nil {
		t.Fatalf("healthy-shard frame after loss: %v", err)
	}
	if resp.Applied != 1 {
		t.Fatalf("healthy-shard frame applied %d, want 1", resp.Applied)
	}
}
