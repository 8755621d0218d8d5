package pcm

import "math/bits"

// WearSelect computes exact wear percentiles over a bank's live line
// words without copying, sorting or writing them: an MSD radix select
// that reads one byte of the wear field per pass and follows each
// target rank into the bucket that holds it. The three targets share
// every pass. A query takes one pass per significant byte of the bank's
// maximum wear — at most four — and none while the bank is unworn; the
// content bits below the wear field are never a pass. Its only memory is
// the fixed 3 KiB of histograms below, so a caller that keeps one
// WearSelect queries without allocating. The zero value is ready to use.
type WearSelect struct {
	hist [3][256]uint32
}

// Quantiles returns the 0.50, 0.90 and 0.99 quantiles of b's per-line
// wear, each the element at index int(q·(n−1)) of the n wear values
// sorted ascending. It reads the live line words, so it must run on the
// bank's own goroutine between operations, as every Bank method does.
func (s *WearSelect) Quantiles(b *Bank) (p50, p90, p99 uint64) {
	return s.quantiles(b.lines, b.maxWearVal)
}

// quantiles selects over line words. maxWear must bound every word's
// wear from above (the bank's running maximum does); bits above it are
// never examined, and a zero bound answers without reading words. The
// histogram counts are uint32, so words must hold fewer than 2^32
// elements — a bank that large would carry 16 GiB of line words.
func (s *WearSelect) quantiles(words []uint32, maxWear uint32) (p50, p90, p99 uint64) {
	if len(words) == 0 || maxWear == 0 {
		return 0, 0, 0
	}
	last := float64(len(words) - 1)
	// Target k has rank[k] among the elements whose wear bits above the
	// current byte equal val[k].
	rank := [3]uint32{uint32(0.50 * last), uint32(0.90 * last), uint32(0.99 * last)}
	var val [3]uint32
	for shift := uint(bits.Len32(maxWear)-1) &^ 7; ; shift -= 8 {
		s.pass(words, shift, &rank, &val)
		if shift == 0 {
			break
		}
	}
	return uint64(val[0]), uint64(val[1]), uint64(val[2])
}

// pass decides the wear byte at shift for each target. It works on the
// words as stored: wear bit i is word bit i+contentBits, so the decided
// prefixes move up by contentBits and the content bits fall below every
// mask. Targets are rank-ordered, so their decided prefixes are
// non-decreasing and equal ones are adjacent; a target shares the
// histogram of the previous one when their prefixes match. Unused prefix
// slots hold 1, which no word&high can equal: its low 10 bits are always
// zero.
func (s *WearSelect) pass(words []uint32, shift uint, rank, val *[3]uint32) {
	at := shift + contentBits
	high := ^uint32(0) << (at + 8) // the wear bits decided by earlier passes
	prefix := [3]uint32{1, 1, 1}
	var slot [3]int
	for k, p := range val {
		if k > 0 && p == val[k-1] {
			slot[k] = slot[k-1]
		} else {
			slot[k], prefix[k] = k, p<<contentBits
		}
	}
	clear(s.hist[:])
	h0, h1, h2 := &s.hist[0], &s.hist[1], &s.hist[2]
	for _, word := range words {
		switch word & high {
		case prefix[0]:
			h0[uint8(word>>at)]++
		case prefix[1]:
			h1[uint8(word>>at)]++
		case prefix[2]:
			h2[uint8(word>>at)]++
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
