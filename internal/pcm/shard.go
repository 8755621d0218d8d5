package pcm

import "fmt"

// Shard is a single-writer window onto a contiguous physical range
// [lo, hi) of a Bank. It exposes the bank's operation set (Read, Write,
// Move, Swap — so it satisfies wear.Mover) but books every counter —
// operation counts, the device clock, first failure, the wear maximum —
// privately, touching only its own range of the bank's line words. Shards
// over disjoint ranges of the same bank may therefore run on different
// goroutines concurrently: they share no mutable state, in the same way
// distinct banks don't (see the package comment on the single-writer-per-
// bank contract). A line's wear and content live in one word, so any
// split point is safe: no two lines share a byte, as they would if the
// content were packed below word size.
//
// A shard's clock is relative to its creation; Bank.MergeShards folds the
// private books back into the bank, serializing the shards in argument
// order. While any shard is live the bank itself must be quiescent, and
// the shard's counters are not reflected in the bank until merged.
type Shard struct {
	b      *Bank
	lo, hi uint64

	writes      uint64
	resetWrites uint64
	reads       uint64
	elapsedNs   uint64 // relative to shard creation

	failedLines uint64
	failed      bool
	failPA      uint64
	failRelNs   uint64

	maxWearVal uint32
	maxWearPA  uint64

	// The pad makes a Shard exactly two 64-byte cache lines on 64-bit
	// platforms (size class 128 keeps it line-aligned): the sweep kernel
	// allocates one per worker back to back, and each worker bumps its
	// shard's counters on every write. TestShardFillsCacheLines checks
	// the size.
	_ [24]byte
}

// Shard opens a single-writer window onto physical lines [lo, hi).
func (b *Bank) Shard(lo, hi uint64) *Shard {
	if lo > hi || hi > b.cfg.Lines {
		panic(fmt.Errorf("%w: shard [%d,%d) outside bank of %d lines", ErrBadAddress, lo, hi, b.cfg.Lines))
	}
	return &Shard{b: b, lo: lo, hi: hi}
}

func (s *Shard) check(pa uint64) {
	if pa < s.lo || pa >= s.hi {
		panic(fmt.Errorf("%w: %d outside shard [%d,%d)", ErrBadAddress, pa, s.lo, s.hi))
	}
}

// noteWear mirrors Bank.noteWear on the shard's private maximum.
func (s *Shard) noteWear(pa uint64, w uint32) {
	if w > s.maxWearVal {
		s.maxWearVal = w
		s.maxWearPA = pa
	} else if w == s.maxWearVal && pa < s.maxWearPA {
		s.maxWearPA = pa
	}
}

// Read mirrors Bank.Read within the shard's range.
func (s *Shard) Read(pa uint64) (Content, uint64) {
	s.check(pa)
	s.reads++
	s.elapsedNs += s.b.cfg.Timing.ReadNs
	return Content(s.b.lines[pa] & contentMask), s.b.cfg.Timing.ReadNs
}

// Write mirrors Bank.Write within the shard's range.
func (s *Shard) Write(pa uint64, c Content) uint64 {
	s.check(pa)
	b := s.b
	ns := b.cfg.Timing.WriteNs(c)
	s.writes++
	if c == Zeros {
		s.resetWrites++
	}
	s.elapsedNs += ns
	w, fails := wearWrite(&b.lines[pa], c, b.cfg.Endurance)
	s.noteWear(pa, w)
	if fails {
		s.failedLines++
		if !s.failed {
			s.failed = true
			s.failPA = pa
			s.failRelNs = s.elapsedNs
		}
	}
	return ns
}

// Move mirrors Bank.Move; both lines must lie in the shard's range.
func (s *Shard) Move(src, dst uint64) uint64 {
	c, rd := s.Read(src)
	return rd + s.Write(dst, c)
}

// Swap mirrors Bank.Swap; all four accesses must lie in the shard's range.
func (s *Shard) Swap(x, y uint64) uint64 {
	cx, r1 := s.Read(x)
	cy, r2 := s.Read(y)
	return r1 + r2 + s.Write(x, cy) + s.Write(y, cx)
}

// Writes returns the demand+movement writes performed through the shard.
func (s *Shard) Writes() uint64 { return s.writes }

// ElapsedNs returns the shard-relative device time consumed.
func (s *Shard) ElapsedNs() uint64 { return s.elapsedNs }

// Failed reports whether a write through this shard carried a line past
// its endurance.
func (s *Shard) Failed() bool { return s.failed }

// MergeShards folds the private books of shards back into the bank,
// serializing them in argument order: shard i's operations are placed on
// the device clock after all of shard 0..i−1's, exactly as if the shards
// had run sequentially in that order. Counter totals and line words are
// order-independent (each shard already wrote its disjoint range); the
// ordering convention only pins down event *times*. A first failure
// inside a shard is therefore placed at bank-clock = clock-at-merge +
// preceding shards' durations + the shard-relative failure time, which is
// bit-identical to the serial run in merge order. Callers that require a
// specific serialization (the differential tests do) must pass shards in
// that order; callers that prove no failure can occur in any shard (the
// parallel sweep kernel does) may pass any order.
func (b *Bank) MergeShards(shards ...*Shard) {
	for _, s := range shards {
		if s.b != b {
			panic(fmt.Errorf("pcm: merging a shard of a different bank"))
		}
		b.totalWrites += s.writes
		b.resetWrites += s.resetWrites
		b.totalReads += s.reads
		b.failedLines += s.failedLines
		if s.failed && !b.failed {
			b.failed = true
			b.firstFailPA = s.failPA
			b.firstFailNs = b.elapsedNs + s.failRelNs
		}
		if s.maxWearVal > 0 {
			b.noteWear(s.maxWearPA, s.maxWearVal)
		}
		b.elapsedNs += s.elapsedNs
	}
}
