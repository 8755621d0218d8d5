package memserver

import "math/bits"

// wearSelect computes exact wear percentiles over a bank's live wear
// array without copying, sorting or writing it: an MSD radix select that
// reads one byte of the value per pass and follows each target rank into
// the bucket that holds it. The three targets share every pass. A query
// takes one pass per significant byte of the maximum wear — at most
// four — and none while the bank is unworn. Its only memory is the
// fixed 3 KiB of histograms below.
type wearSelect struct {
	hist [3][256]uint32
}

// quantiles returns the 0.50, 0.90 and 0.99 quantiles of w, each the
// element at index int(q·(len(w)−1)) of w sorted ascending. maxWear must
// bound every element from above (the bank's running maximum does); bits
// above it are never examined, and a zero bound answers without reading
// w. The histogram counts are uint32, so w must hold fewer than 2^32
// elements — a bank that large would carry 16 GiB of wear counters.
func (s *wearSelect) quantiles(w []uint32, maxWear uint32) (p50, p90, p99 uint64) {
	if len(w) == 0 || maxWear == 0 {
		return 0, 0, 0
	}
	last := float64(len(w) - 1)
	// Target k has rank[k] among the elements whose bits above the
	// current byte equal val[k].
	rank := [3]uint32{uint32(0.50 * last), uint32(0.90 * last), uint32(0.99 * last)}
	var val [3]uint32
	for shift := uint(bits.Len32(maxWear)-1) &^ 7; ; shift -= 8 {
		s.pass(w, shift, &rank, &val)
		if shift == 0 {
			break
		}
	}
	return uint64(val[0]), uint64(val[1]), uint64(val[2])
}

// pass decides the byte at shift for each target. Targets are
// rank-ordered, so their decided prefixes are non-decreasing and equal
// ones are adjacent; a target shares the histogram of the previous one
// when their prefixes match. Unused prefix slots hold 1, which no
// v&high can equal: its low 8 bits are always zero.
func (s *wearSelect) pass(w []uint32, shift uint, rank, val *[3]uint32) {
	high := ^uint32(0) << (shift + 8) // the bits decided by earlier passes
	prefix := [3]uint32{1, 1, 1}
	var slot [3]int
	for k, p := range val {
		if k > 0 && p == val[k-1] {
			slot[k] = slot[k-1]
		} else {
			slot[k], prefix[k] = k, p
		}
	}
	clear(s.hist[:])
	h0, h1, h2 := &s.hist[0], &s.hist[1], &s.hist[2]
	for _, v := range w {
		switch v & high {
		case prefix[0]:
			h0[uint8(v>>shift)]++
		case prefix[1]:
			h1[uint8(v>>shift)]++
		case prefix[2]:
			h2[uint8(v>>shift)]++
		}
	}
	for k := range rank {
		b, r := pick(&s.hist[slot[k]], rank[k])
		rank[k], val[k] = r, val[k]|uint32(b)<<shift
	}
}

// pick returns the bucket holding the element of rank r in histogram h
// and r's rank within that bucket. r is below h's total, so the walk
// stops inside h; the b < 255 guard only keeps a broken maxWear bound
// from indexing past it.
func pick(h *[256]uint32, r uint32) (b int, rest uint32) {
	for ; b < 255 && r >= h[b]; b++ {
		r -= h[b]
	}
	return b, r
}
