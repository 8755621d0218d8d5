package memrouter

import "securityrbsg/internal/memserver"

// The pure half of the router: splitting one client batch into
// per-shard sub-batches and merging the shard responses back into one
// client response. No sockets, no goroutines — these functions are the
// fuzz surface (FuzzRouterSplitMerge) precisely because everything
// that can corrupt op order or drop a result lives here.

// shardBatch is one shard's slice of a client frame: the ops rewritten
// to shard-local lines, and the original op positions they came from.
type shardBatch struct {
	shard int
	ops   []memserver.BatchOp // local-line ops
	idx   []int               // original positions in the client batch
}

// splitPlan is a frame's reusable split state: one shardBatch per
// touched shard, buffers recycled frame over frame.
type splitPlan struct {
	batches []shardBatch // len = shards; untouched entries have empty idx
	touched []int        // shard indices with at least one op, ascending
}

// reset prepares the plan for a frame against nShards shards.
func (p *splitPlan) reset(nShards int) {
	if cap(p.batches) < nShards {
		p.batches = make([]shardBatch, nShards)
		for i := range p.batches {
			p.batches[i].shard = i
		}
	}
	p.batches = p.batches[:nShards]
	for i := range p.batches {
		b := &p.batches[i]
		b.shard = i
		b.ops = b.ops[:0]
		b.idx = b.idx[:0]
	}
	p.touched = p.touched[:0]
}

// split partitions ops across shards by the map, preserving per-shard
// op order (the shards' banks rely on arrival order, and per-bank
// order through the router must match a direct connection). Lines are
// rewritten to shard-local space; idx remembers where each op goes in
// the merged response. Callers validate lines against the map first —
// split assumes every op is in range.
//
//rbsglint:hotpath
func split(m *Map, ops []memserver.BatchOp, p *splitPlan) {
	p.reset(m.shards)
	for i, o := range ops {
		s, local := m.Locate(o.Line)
		b := &p.batches[s]
		if len(b.idx) == 0 {
			p.touched = append(p.touched, s)
		}
		o.Line = local
		b.ops = append(b.ops, o)
		b.idx = append(b.idx, i)
	}
}

// shardOutcome is what one shard's sub-batch came back as. Exactly one
// of the three states holds per outcome:
//
//   - ok: resp carries the sub-batch results
//   - nacked: the shard answered backpressure; resp carries the
//     partial accounting it returned, retryAfterSecs its ask
//   - failed: transport-level loss (dead shard, bad frame) — no
//     results exist; every op in the sub-batch counts rejected
type shardOutcome struct {
	batch          *shardBatch
	resp           *memserver.BatchResponse
	nacked         bool
	retryAfterSecs uint32
	failed         bool
}

// merge reassembles shard outcomes into the client response. Results
// scatter back to their original positions via idx — order-preserving
// by construction, which the fuzz target cross-checks against a
// direct, unsplit execution. Accounting sums; NsMax takes the max.
//
// Backpressure aggregates conservatively: one nacked (or failed) shard
// makes the whole frame a Nack, with the largest Retry-After any shard
// asked for, while the merged response still carries every result the
// healthy shards produced — the client's retry resubmits everything,
// and the shards' own idempotent accounting (applied vs rejected)
// keeps the books straight, exactly as with a single overloaded
// memctld.
//
//rbsglint:hotpath
func merge(outcomes []shardOutcome, total int, out *memserver.BatchResponse) (nack bool, retryAfterSecs uint32) {
	out.Reset(total)
	for i := range outcomes {
		oc := &outcomes[i]
		b := oc.batch
		if oc.failed {
			out.Rejected += len(b.idx)
			nack = true
			if oc.retryAfterSecs > retryAfterSecs {
				retryAfterSecs = oc.retryAfterSecs
			}
			continue
		}
		if oc.nacked {
			nack = true
			if oc.retryAfterSecs > retryAfterSecs {
				retryAfterSecs = oc.retryAfterSecs
			}
		}
		r := oc.resp
		if r == nil || len(r.Ns) != len(b.idx) || len(r.Data) != len(b.idx) {
			// A shard answering the wrong shape is a failed shard, not a
			// partially-trusted one.
			out.Rejected += len(b.idx)
			nack = true
			continue
		}
		out.Applied += r.Applied
		out.Rejected += r.Rejected
		out.NsSum += r.NsSum
		if r.NsMax > out.NsMax {
			out.NsMax = r.NsMax
		}
		for k, orig := range b.idx {
			out.Ns[orig] = r.Ns[k]
			out.Data[orig] = r.Data[k]
		}
	}
	if nack && retryAfterSecs == 0 {
		retryAfterSecs = memserver.NackRetryAfterSecs
	}
	return nack, retryAfterSecs
}
