package memserver

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"securityrbsg/internal/stats"
)

// TestConcurrentSubmitters drives four connection handlers' Begin at
// once over 64 banks that admit one run at a time, so runs from different
// handlers collide and some are refused. Each handler owns the lines
// whose bank row is its index mod 4 and keeps a shadow of them; every
// frame's answer must account for every op, carry the shadow's value
// on every applied read, report zeros for every refused op, and apply
// or refuse each bank's share as a whole. After the drain the banks
// must have served exactly the applied ops, and the refused runs must
// match the banks' rejection counters. Run it under -race, and at
// several executor counts (make race runs -cpu 1,3,4): it is the
// submitter/executor ownership rule's test above the single-writer
// banks.
func TestConcurrentSubmitters(t *testing.T) {
	const (
		handlers = 4
		banks    = 64
		perBank  = 256
		frames   = 500
		batch    = 256
	)
	s := MustNew(Config{
		Banks: banks, Lines: banks * perBank, Scheme: SchemeAdaptive,
		Regions: 8, Interval: 4, Seed: 7, QueueDepth: 1,
	})
	s.Start()

	tallies := make([]frameTally, handlers)
	var wg sync.WaitGroup
	for h := range handlers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if tallies[h], err = submitFrames(s, uint64(h), handlers, frames, batch); err != nil {
				t.Errorf("handler %d: %v", h, err)
			}
		}()
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		return
	}

	var applied, rejected, refusedRuns, served, queueRejected uint64
	for _, tl := range tallies {
		applied += tl.applied
		rejected += tl.rejected
		refusedRuns += tl.refusedRuns
	}
	for _, bs := range s.banks {
		snap := bs.Snapshot()
		served += snap.Stats.DemandWrites + snap.Stats.DemandReads
		queueRejected += bs.rejected.Load()
	}
	if applied+rejected != handlers*frames*batch {
		t.Fatalf("applied %d + rejected %d ops, want %d", applied, rejected, handlers*frames*batch)
	}
	if served != applied {
		t.Fatalf("banks served %d demand ops, frames report %d applied", served, applied)
	}
	if queueRejected != refusedRuns {
		t.Fatalf("queues counted %d rejections, frames show %d refused runs", queueRejected, refusedRuns)
	}
	if refusedRuns == 0 {
		t.Fatal("no run was ever refused: the handlers never collided on a bank")
	}
	t.Logf("%d ops applied, %d rejected in %d refused runs", applied, rejected, refusedRuns)
}

// frameTally counts one handler's applied and rejected ops and its
// refused bank runs.
type frameTally struct{ applied, rejected, refusedRuns uint64 }

// uniformOp draws one op of serve_uniform's mix for client conn of
// conns over banks banks: a line the client owns (one whose bank row,
// line / banks, is conn mod conns) uniformly from its owned lines, a
// quarter reads, and writes carrying ALL-0, ALL-1 or MIXED with equal
// odds. It also returns the line's index among the owned lines.
func uniformOp(rng *stats.RNG, conn, conns, banks, owned uint64) (uint64, BatchOp) {
	i := rng.Uint64n(owned)
	o := BatchOp{Line: ((i/banks)*conns+conn)*banks + i%banks, Data: uint8(rng.Uint64n(3))}
	if rng.Uint64n(4) == 0 {
		o = BatchOp{Line: o.Line, Read: true}
	}
	return i, o
}

// submitFrames runs frames batch-op frames of serve_uniform's mix
// (uniformOp) through one fresh connection handler of s, as client h of
// handlers. It checks each answer against its shadow of the owned
// lines.
func submitFrames(s *Server, h, handlers uint64, frames, batch int) (frameTally, error) {
	var tl frameTally
	banks := uint64(s.cfg.Banks)
	owned := s.cfg.Lines / handlers
	shadow := make([]uint8, owned) // every line starts ALL-0

	c := s.newBinConn()
	rng := stats.NewRNG(100 + h)
	ops := make([]BatchOp, batch)
	idx := make([]uint64, batch)
	bankState := make([]uint8, banks) // per frame: 0 untouched, 1 applied, 2 refused
	var resp BatchResponse
	for f := range frames {
		for k := range ops {
			idx[k], ops[k] = uniformOp(rng, h, handlers, banks, owned)
		}
		out, fatal := c.Begin(0, appendBatchReqBody(nil, WireVersion, ops))
		if fatal || len(out) < 4+wireHdrSize {
			return tl, fmt.Errorf("frame %d: fatal=%v, %d-byte answer", f, fatal, len(out))
		}
		payload := out[4+wireHdrSize:]
		switch out[4+1] {
		case frameBatchResp:
		case frameNack:
			payload = payload[4:]
		default:
			return tl, fmt.Errorf("frame %d: answer type %#x", f, out[4+1])
		}
		if code := decodeBatchRespPayload(payload, &resp); code != 0 || len(resp.Ns) != batch {
			return tl, fmt.Errorf("frame %d: answer failed decode (code %d, %d results)", f, code, len(resp.Ns))
		}
		if resp.Applied+resp.Rejected != batch {
			return tl, fmt.Errorf("frame %d: applied %d + rejected %d, want %d", f, resp.Applied, resp.Rejected, batch)
		}
		clear(bankState)
		appliedOps := 0
		for k, o := range ops {
			bank, _ := s.mem.Route(o.Line)
			ns, data := resp.Ns[k], resp.Data[k]
			state := uint8(1)
			if ns == 0 {
				state = 2
			}
			if bankState[bank] == 0 {
				bankState[bank] = state
				if state == 2 {
					tl.refusedRuns++
				}
			} else if bankState[bank] != state {
				return tl, fmt.Errorf("frame %d: bank %d's run partly applied", f, bank)
			}
			switch {
			case ns == 0:
				if data != 0 {
					return tl, fmt.Errorf("frame %d op %d: refused op reports data %d", f, k, data)
				}
			case o.Read:
				appliedOps++
				if data != shadow[idx[k]] {
					return tl, fmt.Errorf("frame %d op %d: read line %d = %d, shadow holds %d", f, k, o.Line, data, shadow[idx[k]])
				}
			default:
				appliedOps++
				if data != 0 {
					return tl, fmt.Errorf("frame %d op %d: write answered data %d", f, k, data)
				}
				shadow[idx[k]] = o.Data
			}
		}
		if appliedOps != resp.Applied {
			return tl, fmt.Errorf("frame %d: %d ops carry a latency, %d reported applied", f, appliedOps, resp.Applied)
		}
		tl.applied += uint64(resp.Applied)
		tl.rejected += uint64(resp.Rejected)
	}
	return tl, nil
}
