package memrouter

import (
	"testing"

	"securityrbsg/internal/memserver"
)

// synthNs and synthData are the deterministic per-op results the fake
// shards "compute" in the fuzz harness: functions of the ORIGINAL
// logical line, so any split/merge slot mix-up shows up as a value
// mismatch, not just a length error.
func synthNs(line uint64) uint64  { return line*1000 + 7 }
func synthData(line uint64) uint8 { return uint8(line % 3) }

// FuzzRouterSplitMerge: arbitrary op streams over arbitrary small
// topologies split into per-shard batches and merge back
// byte-identically — every op's result lands in its original slot —
// and injected Nacks/failures never drop or reorder the surviving
// results.
func FuzzRouterSplitMerge(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(6), []byte{0, 1, 2, 255, 7}, uint8(0))
	f.Add(uint64(42), uint8(2), uint8(2), []byte{9, 9, 9, 9}, uint8(1))
	f.Add(uint64(7), uint8(5), uint8(10), []byte{}, uint8(2))
	f.Add(uint64(3), uint8(1), uint8(1), []byte{1, 2, 3}, uint8(0xff))

	f.Fuzz(func(t *testing.T, seed uint64, nShards, nGroups uint8, lineBytes []byte, failMask uint8) {
		shards := int(nShards%8) + 1
		groups := int(nGroups%16) + 1
		if groups < shards {
			groups = shards
		}
		const perGroup = 64
		lines := uint64(groups) * perGroup
		m, err := NewMap(lines, groups, shards, nil)
		if err != nil {
			t.Fatalf("map: %v", err)
		}

		// Ops derived from the fuzz bytes; odd seeds make them reads.
		read := seed%2 == 1
		ops := make([]memserver.BatchOp, 0, len(lineBytes))
		for i, lb := range lineBytes {
			line := (uint64(lb)*131 + seed + uint64(i)) % lines
			ops = append(ops, memserver.BatchOp{Line: line, Read: read, Data: uint8(line % 3)})
		}

		var plan splitPlan
		split(m, ops, &plan)

		// Every op appears exactly once across the shard batches, on the
		// shard the map names, with the local line the map computes.
		seen := make([]int, len(ops))
		for _, s := range plan.touched {
			b := &plan.batches[s]
			if len(b.ops) != len(b.idx) {
				t.Fatalf("shard %d: %d ops for %d idx", s, len(b.ops), len(b.idx))
			}
			for k, orig := range b.idx {
				seen[orig]++
				wantShard, local := m.Locate(ops[orig].Line)
				if wantShard != s {
					t.Fatalf("op %d routed to shard %d, map says %d", orig, s, wantShard)
				}
				if b.ops[k].Line != local || b.ops[k].Data != ops[orig].Data || b.ops[k].Read != ops[orig].Read {
					t.Fatalf("op %d rewrote wrong: %+v (orig %+v, local %d)", orig, b.ops[k], ops[orig], local)
				}
			}
		}
		for i, n := range seen {
			if n != 1 {
				t.Fatalf("op %d appears %d times across shard batches", i, n)
			}
		}

		// Synthesize shard responses from the original lines and merge.
		// failMask bit s: shard s Nacks, rejecting its last op.
		outcomes := make([]shardOutcome, 0, len(plan.touched))
		wantNack := false
		for _, s := range plan.touched {
			b := &plan.batches[s]
			oc := shardOutcome{batch: b}
			nacked := failMask&(1<<(uint(s)%8)) != 0
			applied := len(b.idx)
			if nacked {
				// The shard applied everything but its last op: partial
				// accounting covers only the applied ones.
				oc.nacked, oc.retryAfterSecs = true, uint32(s+1)
				applied--
				wantNack = true
			}
			r := &memserver.BatchResponse{Applied: applied, Rejected: len(b.idx) - applied}
			for k, orig := range b.idx {
				if k >= applied {
					r.Ns = append(r.Ns, 0)
					r.Data = append(r.Data, 0)
					continue
				}
				r.Ns = append(r.Ns, synthNs(ops[orig].Line))
				r.Data = append(r.Data, synthData(ops[orig].Line))
				r.NsSum += synthNs(ops[orig].Line)
				if synthNs(ops[orig].Line) > r.NsMax {
					r.NsMax = synthNs(ops[orig].Line)
				}
			}
			oc.resp = r
			outcomes = append(outcomes, oc)
		}

		var out memserver.BatchResponse
		nack, retry := merge(outcomes, len(ops), &out)
		if nack != wantNack {
			t.Fatalf("merge nack = %v, want %v", nack, wantNack)
		}
		if nack && retry == 0 {
			t.Fatal("merged Nack carries no retry-after")
		}
		if len(out.Ns) != len(ops) || len(out.Data) != len(ops) {
			t.Fatalf("merged lengths %d/%d for %d ops", len(out.Ns), len(out.Data), len(ops))
		}

		// Per-op equality against the direct, unsplit execution —
		// except ops sacrificed to an injected Nack, which must be
		// zeroed, never shifted.
		rejected := map[int]bool{}
		var wantApplied, wantRejected int
		var wantNsSum, wantNsMax uint64
		for _, s := range plan.touched {
			b := &plan.batches[s]
			nacked := failMask&(1<<(uint(s)%8)) != 0
			for k, orig := range b.idx {
				if nacked && k == len(b.idx)-1 {
					rejected[orig] = true
					wantRejected++
					continue
				}
				wantApplied++
				wantNsSum += synthNs(ops[orig].Line)
				if synthNs(ops[orig].Line) > wantNsMax {
					wantNsMax = synthNs(ops[orig].Line)
				}
			}
		}
		if out.Applied != wantApplied || out.Rejected != wantRejected {
			t.Fatalf("accounting applied=%d rejected=%d, want %d/%d", out.Applied, out.Rejected, wantApplied, wantRejected)
		}
		if out.NsSum != wantNsSum || out.NsMax != wantNsMax {
			t.Fatalf("ns accounting sum=%d max=%d, want %d/%d", out.NsSum, out.NsMax, wantNsSum, wantNsMax)
		}
		for i := range ops {
			wantNs, wantData := synthNs(ops[i].Line), synthData(ops[i].Line)
			if rejected[i] {
				wantNs, wantData = 0, 0
			}
			if out.Ns[i] != wantNs || out.Data[i] != wantData {
				t.Fatalf("op %d merged ns=%d data=%d, want %d/%d (dropped or reordered)",
					i, out.Ns[i], out.Data[i], wantNs, wantData)
			}
		}
	})
}

// TestMergeFailedShard pins the transport-loss path: a failed shard's
// ops count rejected, the frame Nacks with the default retry-after,
// and the healthy shards' results still land in their slots.
func TestMergeFailedShard(t *testing.T) {
	m, err := NewMap(512, 2, 2, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	ops := []memserver.BatchOp{{Line: 0, Data: 1}, {Line: 256, Data: 2}, {Line: 1, Data: 1}}
	var plan splitPlan
	split(m, ops, &plan)

	outcomes := []shardOutcome{
		{batch: &plan.batches[0], resp: &memserver.BatchResponse{
			Applied: 2, NsSum: 30, NsMax: 20, Ns: []uint64{10, 20}, Data: []uint8{1, 1},
		}},
		{batch: &plan.batches[1], failed: true},
	}
	var out memserver.BatchResponse
	nack, retry := merge(outcomes, len(ops), &out)
	if !nack || retry != memserver.NackRetryAfterSecs {
		t.Fatalf("nack=%v retry=%d, want true/%d", nack, retry, memserver.NackRetryAfterSecs)
	}
	if out.Applied != 2 || out.Rejected != 1 {
		t.Fatalf("applied=%d rejected=%d, want 2/1", out.Applied, out.Rejected)
	}
	if out.Ns[0] != 10 || out.Ns[2] != 20 || out.Ns[1] != 0 {
		t.Fatalf("ns scatter wrong: %v", out.Ns)
	}
	if out.Data[0] != 1 || out.Data[2] != 1 || out.Data[1] != 0 {
		t.Fatalf("data scatter wrong: %v", out.Data)
	}
}
