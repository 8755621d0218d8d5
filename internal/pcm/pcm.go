// Package pcm models a Phase Change Memory bank at memory-line granularity.
//
// The model captures exactly the device properties the paper's attacks and
// defenses depend on:
//
//   - Asymmetric write latency. A PCM cell is SET (write '1') by a long
//     heating pulse and RESET (write '0') by a short one; the paper assumes
//     1000 ns vs 125 ns. A line write completes when its slowest cell
//     completes, so a line whose new data contains any '1' bit costs the SET
//     latency while an all-zero write costs only the RESET latency. This is
//     the side channel the Remapping Timing Attack measures.
//
//   - Limited endurance. Each line tolerates a bounded number of writes
//     (the paper assumes 10^8) after which it becomes a stuck-at hard
//     fault. The bank records the elapsed device time at the first
//     failure, which is the "lifetime" every experiment in the paper
//     reports.
//
// A line's state is one uint32 word: its wear in the upper 30 bits and
// its content class in the lower two. A write reads and writes that one
// word, so a bank of n lines holds 4n bytes, and the 30-bit field bounds
// the endurance a bank accepts (MaxEndurance). Only this package decodes
// a word: other packages read wear through Wear, WearSnapshot, MaxWear
// and WearSelect.
//
// The bank knows nothing about wear leveling: it is addressed purely by
// physical line number. Address translation lives in the scheme packages
// and in internal/wear.
//
// A Bank is not safe for concurrent use: every operation mutates wear
// counters and the device clock without locks. Distinct Bank instances
// share no state, so they may be driven from different goroutines —
// the single-writer-per-bank contract spelled out in internal/membank
// and enforced at runtime by internal/memserver's bank executors.
package pcm

import (
	"errors"
	"fmt"
)

// Content classifies the data stored in (or written to) a line. The timing
// model only needs to know whether the line contains any SET bits, so data
// is tracked as a three-valued class rather than as bytes.
type Content uint8

const (
	// Zeros means every bit of the line is '0' (the attacker's fast write).
	Zeros Content = iota
	// Ones means every bit of the line is '1' (the attacker's slow write).
	Ones
	// Mixed means the line holds ordinary data with both bit values; a
	// write of Mixed content always pays the SET latency because some cell
	// almost surely requires a SET transition.
	Mixed
)

// String returns a human-readable name for the content class.
func (c Content) String() string {
	switch c {
	case Zeros:
		return "ALL-0"
	case Ones:
		return "ALL-1"
	case Mixed:
		return "MIXED"
	default:
		return fmt.Sprintf("Content(%d)", uint8(c))
	}
}

// Timing holds the device latencies in nanoseconds.
type Timing struct {
	ReadNs  uint64 // latency of a line read
	ResetNs uint64 // latency of a line write containing only RESET pulses
	SetNs   uint64 // latency of a line write requiring at least one SET pulse
}

// DefaultTiming is the paper's assumption: READ 125 ns, RESET 125 ns,
// SET 1000 ns (Section II-C, following Qureshi et al., PreSET).
var DefaultTiming = Timing{ReadNs: 125, ResetNs: 125, SetNs: 1000}

// WriteNs returns the latency of writing content c to a line. Only the new
// data matters: the paper's model rewrites every bit of the line, so a line
// write containing any '1' costs the SET time.
func (t Timing) WriteNs(c Content) uint64 {
	if c == Zeros {
		return t.ResetNs
	}
	return t.SetNs
}

// The line word: wear<<contentBits | content.
const (
	contentBits = 2
	contentMask = 1<<contentBits - 1
	// wearMax is the wear field's largest value. Wear saturates there
	// instead of wrapping; only writes to a failed line can reach it.
	wearMax = 1<<(32-contentBits) - 1
)

// MaxEndurance is the largest endurance a bank accepts, 2^30 − 2: the
// write that fails a line takes its wear to endurance + 1, which the
// 30-bit wear field must still hold exactly. Demos and benchmarks that
// want lines that never fail pass it; a line then fails only after more
// than 10^9 writes.
const MaxEndurance = wearMax - 1

// Config describes a PCM bank.
type Config struct {
	// Lines is the number of physical memory lines in the bank. This must
	// cover both the logical space and any spare (gap) lines the
	// wear-leveling scheme needs.
	Lines uint64
	// Endurance is the number of writes a line tolerates before it becomes
	// a stuck-at fault: 1 to MaxEndurance. The paper assumes 10^8.
	Endurance uint64
	// Timing holds the device latencies; zero value means DefaultTiming.
	Timing Timing
}

func (c *Config) normalize() error {
	if c.Lines == 0 {
		return errors.New("pcm: config needs at least one line")
	}
	if c.Endurance == 0 {
		return errors.New("pcm: endurance must be positive")
	}
	if c.Endurance > MaxEndurance {
		return fmt.Errorf("pcm: endurance %d exceeds the maximum %d (pcm.MaxEndurance)", c.Endurance, uint64(MaxEndurance))
	}
	if c.Timing == (Timing{}) {
		c.Timing = DefaultTiming
	}
	return nil
}

// ErrBadAddress is returned (wrapped) when a physical address is out of
// range for the bank.
var ErrBadAddress = errors.New("pcm: physical address out of range")

// Bank is a simulated PCM bank addressed by physical line number.
// It is not safe for concurrent use; the experiments shard work by running
// one bank per goroutine.
type Bank struct {
	cfg   Config
	lines []uint32 // one word per line: wear<<contentBits | content

	failedLines uint64 // number of lines past endurance
	firstFailPA uint64
	firstFailNs uint64
	failed      bool

	totalWrites uint64
	resetWrites uint64 // writes of ALL-0 content (RESET pulses only)
	totalReads  uint64
	elapsedNs   uint64

	// Running maximum over wear, maintained on every write so MaxWear is
	// O(1). The tie-break (lowest PA among equally worn lines) matches the
	// scan it replaced — figure fingerprints depend on MaxWearPA.
	maxWearVal uint32
	maxWearPA  uint64

	// The pad makes a Bank exactly three 64-byte cache lines on 64-bit
	// platforms, so the counters above never share a line with the next
	// heap object, often another bank that another goroutine drives
	// (memctld's executors, the tournament's workers). Unpadded, the
	// two-worker tournament ran slower with a long tail (DESIGN.md,
	// "Performance engineering"). TestBankFillsCacheLines checks the size.
	_ [48]byte
}

// wearWrite applies one write of c under endurance e to a line's word
// and returns the line's new wear and whether this write is the one that
// fails the line. A live line stores c; a failed line keeps its content
// (the stuck-at fault) while its wear keeps counting, saturating at
// wearMax. Only the two class bits of c are stored, so no Content value
// reaches the wear.
func wearWrite(line *uint32, c Content, e uint64) (wear uint32, fails bool) {
	w := *line >> contentBits
	if uint64(w) < e {
		*line = (w+1)<<contentBits | uint32(c)&contentMask
		return w + 1, false
	}
	fails = uint64(w) == e
	if w < wearMax {
		w++
		*line += 1 << contentBits
	}
	return w, fails
}

// noteWear folds one line's new wear value into the running maximum,
// preserving the earliest-PA tie-break of a left-to-right scan: a line
// only takes over an equal maximum if its address is lower.
func (b *Bank) noteWear(pa uint64, w uint32) {
	if w > b.maxWearVal {
		b.maxWearVal = w
		b.maxWearPA = pa
	} else if w == b.maxWearVal && pa < b.maxWearPA {
		b.maxWearPA = pa
	}
}

// NewBank builds a bank from cfg. All lines start as Zeros with zero wear.
func NewBank(cfg Config) (*Bank, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	return &Bank{cfg: cfg, lines: make([]uint32, cfg.Lines)}, nil
}

// MustNewBank is NewBank that panics on config errors; for tests and
// examples with literal configs.
func MustNewBank(cfg Config) *Bank {
	b, err := NewBank(cfg)
	if err != nil {
		panic(err)
	}
	return b
}

// Config returns the bank configuration.
func (b *Bank) Config() Config { return b.cfg }

// Lines returns the number of physical lines.
func (b *Bank) Lines() uint64 { return b.cfg.Lines }

func (b *Bank) check(pa uint64) {
	if pa >= b.cfg.Lines {
		panic(fmt.Errorf("%w: %d >= %d", ErrBadAddress, pa, b.cfg.Lines))
	}
}

// Read returns the content of line pa and advances device time by the read
// latency.
func (b *Bank) Read(pa uint64) (Content, uint64) {
	b.check(pa)
	b.totalReads++
	b.elapsedNs += b.cfg.Timing.ReadNs
	return Content(b.lines[pa] & contentMask), b.cfg.Timing.ReadNs
}

// Peek returns the content of line pa without advancing time or counters;
// for assertions and data-movement bookkeeping.
func (b *Bank) Peek(pa uint64) Content {
	b.check(pa)
	return Content(b.lines[pa] & contentMask)
}

// Write stores content c into line pa, wears the line, and advances device
// time. It returns the write latency in nanoseconds. Writing to a failed
// (stuck-at) line still takes time and wear accounting but leaves the
// stored content unchanged, modeling a stuck-at fault.
func (b *Bank) Write(pa uint64, c Content) uint64 {
	b.check(pa)
	ns := b.cfg.Timing.WriteNs(c)
	b.totalWrites++
	if c == Zeros {
		b.resetWrites++
	}
	b.elapsedNs += ns
	w, fails := wearWrite(&b.lines[pa], c, b.cfg.Endurance)
	b.noteWear(pa, w)
	if fails {
		b.failedLines++
		if !b.failed {
			b.failed = true
			b.firstFailPA = pa
			b.firstFailNs = b.elapsedNs
		}
	}
	return ns
}

// WriteN stores content c into line pa n times in a row, with wear, clock
// and failure accounting identical to calling Write(pa, c) n times — but
// in O(1). It returns the total latency of the batch in nanoseconds.
//
// Equivalence to the write-by-write loop is exact: the per-write latency
// is constant (it depends only on c), so the batch advances the clock by
// n·WriteNs(c); if the batch carries the line past its endurance, the
// crossing write's index is computed arithmetically and the recorded
// first-failure time is the clock exactly after that write, as the loop
// would have recorded it. Wear saturates at 2^30 − 1, as in Write; since
// endurance is at most MaxEndurance, the crossing write's wear always
// fits and only a failed line's wear can saturate.
func (b *Bank) WriteN(pa uint64, c Content, n uint64) uint64 {
	if n == 0 {
		return 0
	}
	b.check(pa)
	ns := b.cfg.Timing.WriteNs(c)
	b.totalWrites += n
	if c == Zeros {
		b.resetWrites += n
	}
	line := &b.lines[pa]
	w0, endurance := uint64(*line>>contentBits), b.cfg.Endurance
	content := *line & contentMask
	if w0 < endurance {
		// At least one write of the batch landed before the line stuck, and
		// every successful write stored the same content.
		content = uint32(c) & contentMask
	}
	w1 := uint32(min(w0+n, wearMax))
	*line = w1<<contentBits | content
	b.noteWear(pa, w1)
	if w0 <= endurance && n > endurance-w0 {
		// The (endurance+1−w0)-th write of this batch is the crossing one.
		b.failedLines++
		if !b.failed {
			b.failed = true
			b.firstFailPA = pa
			b.firstFailNs = b.elapsedNs + (endurance+1-w0)*ns
		}
	}
	b.elapsedNs += n * ns
	return n * ns
}

// Move copies the content of line src into line dst (one read plus one
// write), the primitive remapping step of Start-Gap style schemes. It
// returns the total latency — 250 ns for an ALL-0 line, 1125 ns for a line
// containing SET bits, matching Fig 4(a) of the paper.
func (b *Bank) Move(src, dst uint64) uint64 {
	c, rd := b.Read(src)
	return rd + b.Write(dst, c)
}

// Swap exchanges the contents of lines x and y (two reads plus two writes),
// the primitive remapping step of Security Refresh. The latency matches
// Fig 4(b): 500 ns for two ALL-0 lines up to 2250 ns for two lines with
// SET bits.
func (b *Bank) Swap(x, y uint64) uint64 {
	cx, r1 := b.Read(x)
	cy, r2 := b.Read(y)
	return r1 + r2 + b.Write(x, cy) + b.Write(y, cx)
}

// Wear returns the write count of line pa.
func (b *Bank) Wear(pa uint64) uint64 {
	b.check(pa)
	return uint64(b.lines[pa] >> contentBits)
}

// WritesToFailure returns how many more writes line pa takes up to and
// including the one that fails it: the j-th write from now carries its
// wear past the endurance. It returns 0 once the line has failed.
func (b *Bank) WritesToFailure(pa uint64) uint64 {
	b.check(pa)
	e, w := b.cfg.Endurance, uint64(b.lines[pa]>>contentBits)
	if w > e {
		return 0
	}
	return e + 1 - w
}

// WearSnapshot copies every line's wear, indexed by physical address,
// into dst (growing it as needed) and returns it. The copy is decoupled
// from the bank: safe to retain, sort, or read from other goroutines
// while the bank keeps writing. Pass nil to allocate, or a reused buffer
// for zero steady-state allocations.
func (b *Bank) WearSnapshot(dst []uint32) []uint32 {
	if uint64(cap(dst)) < b.cfg.Lines {
		dst = make([]uint32, b.cfg.Lines)
	}
	dst = dst[:b.cfg.Lines]
	for pa, word := range b.lines {
		dst[pa] = word >> contentBits
	}
	return dst
}

// MaxWear returns the highest wear of any line and its address (the
// lowest such address when several lines tie). The maximum is maintained
// incrementally on every write, so this is O(1).
func (b *Bank) MaxWear() (pa uint64, wear uint64) {
	return b.maxWearPA, uint64(b.maxWearVal)
}

// Failed reports whether any line has exceeded its endurance.
func (b *Bank) Failed() bool { return b.failed }

// FirstFailure returns the physical address and the elapsed device time of
// the first line failure. ok is false if no line has failed yet.
func (b *Bank) FirstFailure() (pa uint64, atNs uint64, ok bool) {
	return b.firstFailPA, b.firstFailNs, b.failed
}

// FailedLines returns how many lines have exceeded endurance.
func (b *Bank) FailedLines() uint64 { return b.failedLines }

// ElapsedNs returns the accumulated device time in nanoseconds.
func (b *Bank) ElapsedNs() uint64 { return b.elapsedNs }

// AdvanceNs adds idle or externally accounted time (e.g. attacker-side
// computation between writes) to the device clock.
func (b *Bank) AdvanceNs(ns uint64) { b.elapsedNs += ns }

// TotalWrites returns the number of line writes performed.
func (b *Bank) TotalWrites() uint64 { return b.totalWrites }

// TotalReads returns the number of line reads performed.
func (b *Bank) TotalReads() uint64 { return b.totalReads }
