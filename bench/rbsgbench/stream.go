package main

import "fmt"

const (
	allOne  = 1    // the content class of the hammer's writes
	unknown = 0xff // shadow value of a line whose last write was refused
)

// stream generates one connection's ops from the seed and holds the
// shadow copy its reads are checked against.
//
// Connection c of conns owns the lines whose bank-row (line / banks) is
// congruent to c mod conns, so connections never share a line while
// each still touches every bank. Ops draw owned lines uniformly, 25% are
// reads, and writes carry ALL-0, ALL-1 or MIXED with equal odds. Every
// line starts ALL-0.
//
// A line used by a frame still in flight is not drawn for another frame
// until that frame is answered. The shadow is therefore exact at
// generation time even through the shard router, which may apply two
// in-flight frames of one connection in either order.
type stream struct {
	r      rng
	conn   uint64
	conns  uint64
	banks  uint64
	mask   uint64 // owned lines - 1 (owned lines is a power of two)
	shadow []uint8
	// lastFrame[i] is the sequence number of the last frame that used
	// owned line i; frames are answered in order, so the line is free
	// once acked has reached it.
	lastFrame []uint32
	seq       uint32
	acked     uint32
	// hammer marks the attacker: every op is an ALL-1 write to one line,
	// so neither ordering nor the shadow matters.
	hammer bool
}

func newStream(seed uint64, conn, conns int, banks int, lines uint64, hammer bool) (*stream, error) {
	owned := lines / uint64(conns)
	if owned == 0 || owned&(owned-1) != 0 || owned%uint64(banks) != 0 {
		return nil, fmt.Errorf("%d lines over %d connections and %d banks do not split into power-of-two owned sets", lines, conns, banks)
	}
	s := &stream{
		r:      rng{s: seed*0x100000001b3 + uint64(conn)},
		conn:   uint64(conn),
		conns:  uint64(conns),
		banks:  uint64(banks),
		mask:   owned - 1,
		hammer: hammer,
	}
	if !hammer {
		s.shadow = make([]uint8, owned)
		s.lastFrame = make([]uint32, owned)
	}
	return s, nil
}

// line maps owned index i to its logical line.
func (s *stream) line(i uint64) uint64 {
	return ((i/s.banks)*s.conns+s.conn)*s.banks + i%s.banks
}

// frame is one generated request and what its answer must contain.
type frame struct {
	seq  uint32
	ops  []op
	idx  []uint64 // owned index per op
	want []uint8  // expected data per op: the shadow value for reads, 0 for writes
}

// fill generates the next frame of n ops into f, reusing its slices.
func (s *stream) fill(f *frame, n int) {
	s.seq++
	f.seq = s.seq
	f.ops, f.idx, f.want = f.ops[:0], f.idx[:0], f.want[:0]
	if s.hammer {
		// The RAA shape: one line (the connection's first), ALL-1.
		for k := 0; k < n; k++ {
			f.ops = append(f.ops, op{line: s.line(0), data: allOne})
			f.idx = append(f.idx, 0)
			f.want = append(f.want, 0)
		}
		return
	}
	for k := 0; k < n; k++ {
		var i uint64
		for {
			i = s.r.next() & s.mask
			if last := s.lastFrame[i]; last <= s.acked || last == s.seq {
				break
			}
		}
		s.lastFrame[i] = s.seq
		o := op{line: s.line(i)}
		var want uint8
		if s.r.next()&3 == 0 {
			o.read = true
			want = s.shadow[i]
		} else {
			o.data = uint8(s.r.next() % 3)
			s.shadow[i] = o.data
		}
		f.ops = append(f.ops, o)
		f.idx = append(f.idx, i)
		f.want = append(f.want, want)
	}
}

// check verifies one answered frame against what was sent and records
// the answer in the shadow. It returns the ops the server refused (a
// Nack's rejected count, or the whole frame for an Err) and an error for
// any output that breaks the protocol or the read-after-write contract.
func (s *stream) check(f *frame, resp *response) (failed int, err error) {
	s.acked = f.seq
	n := len(f.ops)
	switch resp.kind {
	case wireErr:
		s.forget(f)
		return n, nil
	case wireNack:
		if int(resp.applied)+int(resp.rejected) != n {
			return 0, fmt.Errorf("frame %d: nack accounts %d applied + %d rejected for %d ops", f.seq, resp.applied, resp.rejected, n)
		}
		// Which ops landed is not knowable from a Nack, so the frame's
		// lines stop being checked until they are written again.
		s.forget(f)
		return int(resp.rejected), nil
	}
	if len(resp.ns) != n || len(resp.data) != n {
		return 0, fmt.Errorf("frame %d: %d ops sent, response carries %d latencies and %d data bytes", f.seq, n, len(resp.ns), len(resp.data))
	}
	if int(resp.applied) != n || resp.rejected != 0 {
		return 0, fmt.Errorf("frame %d: plain response reports %d applied, %d rejected of %d ops", f.seq, resp.applied, resp.rejected, n)
	}
	var sum, max uint64
	for k, ns := range resp.ns {
		if ns == 0 {
			return 0, fmt.Errorf("frame %d op %d: applied op reports zero latency", f.seq, k)
		}
		sum += ns
		if ns > max {
			max = ns
		}
		w := f.want[k]
		if s.hammer || w != unknown {
			if got := resp.data[k]; got != w {
				return 0, fmt.Errorf("frame %d op %d (line %d, read=%v): data %d, want %d", f.seq, k, f.ops[k].line, f.ops[k].read, got, w)
			}
		}
	}
	if sum != resp.nsSum || max != resp.nsMax {
		return 0, fmt.Errorf("frame %d: ns_sum/ns_max %d/%d disagree with per-op latencies %d/%d", f.seq, resp.nsSum, resp.nsMax, sum, max)
	}
	return 0, nil
}

// forget marks the written lines of a refused frame as unknown.
func (s *stream) forget(f *frame) {
	if s.hammer {
		return
	}
	for k, o := range f.ops {
		if !o.read {
			s.shadow[f.idx[k]] = unknown
		}
	}
}
