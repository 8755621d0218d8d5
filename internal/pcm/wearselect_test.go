package pcm

import (
	"encoding/binary"
	"slices"
	"testing"

	"securityrbsg/internal/stats"
)

// sortedQuantiles is the reference the selection must reproduce: copy,
// sort ascending, read index int(q·(n−1)).
func sortedQuantiles(w []uint32) [3]uint64 {
	if len(w) == 0 {
		return [3]uint64{}
	}
	s := slices.Clone(w)
	slices.Sort(s)
	at := func(q float64) uint64 { return uint64(s[int(q*float64(len(s)-1))]) }
	return [3]uint64{at(0.50), at(0.90), at(0.99)}
}

// hammerShaped is the wear an attacked bank carries: 0–50 writes on
// every line but one, which sits near 800k.
func hammerShaped(rng *stats.RNG, n int) []uint32 {
	w := make([]uint32, n)
	for i := range w {
		w[i] = uint32(rng.Uint64n(51))
	}
	if n > 0 {
		w[rng.Uint64n(uint64(n))] = 800_000 + uint32(rng.Uint64n(1000))
	}
	return w
}

// repeat is slices.Repeat for one element (the module targets Go 1.22).
func repeat[T any](v T, n int) []T {
	s := make([]T, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// checkQuantiles packs w into line words, each with the content bits
// classes[i] (all four bit patterns occur, cycling), runs the selection
// under the tight bound and the loosest one, and compares both against
// a sort of the unpacked wear, requiring the words intact.
func checkQuantiles(t *testing.T, w []uint32, classes []byte) {
	t.Helper()
	words := make([]uint32, len(w))
	for i, v := range w {
		words[i] = v<<contentBits | uint32(classes[i%len(classes)])&contentMask
	}
	orig := slices.Clone(words)
	want := sortedQuantiles(w)
	var tight uint32
	for _, v := range w {
		tight = max(tight, v)
	}
	var sel WearSelect
	for _, bound := range []uint32{tight, wearMax} {
		p50, p90, p99 := sel.quantiles(words, bound)
		if got := [3]uint64{p50, p90, p99}; got != want {
			t.Fatalf("len %d bound %d: quantiles %v, sort says %v", len(w), bound, got, want)
		}
		if !slices.Equal(words, orig) {
			t.Fatalf("len %d bound %d: selection modified its input", len(w), bound)
		}
	}
}

func TestWearQuantilesMatchSort(t *testing.T) {
	rng := stats.NewRNG(11)
	uniform := make([]uint32, 4096)
	for i := range uniform {
		uniform[i] = uint32(rng.Uint64n(wearMax + 1))
	}
	even := make([]uint32, 4096)
	for i := range even {
		even[i] = 1_000_000 - 100 + uint32(rng.Uint64n(201))
	}
	// p50 and p90 fall among small values, p99 in a heavy tail bytes
	// above them, so the targets part ways in the first pass.
	tail := make([]uint32, 4096)
	for i := range tail {
		tail[i] = uint32(rng.Uint64n(200))
		if i%32 == 0 {
			tail[i] = 256 + uint32(rng.Uint64n(1<<20))
		}
	}
	// Targets whose values differ in every byte force three distinct
	// prefixes through the later passes.
	straddle := make([]uint32, 1000)
	for i := range straddle {
		straddle[i] = []uint32{255, 256, 65535, 65536, 1 << 24, 1<<24 - 1}[i%6] + uint32(i/6)
	}
	cases := []struct {
		name string
		w    []uint32
	}{
		{"empty", nil},
		{"single zero", []uint32{0}},
		{"single", []uint32{7}},
		{"two", []uint32{9, 3}},
		{"all equal", repeat(uint32(42), 1000)},
		{"all zero", make([]uint32, 1000)},
		{"hammer 4096", hammerShaped(rng, 4096)},
		{"hammer 65536", hammerShaped(rng, 1<<16)},
		{"uniform wear", uniform},
		{"even near 1e6", even},
		{"heavy tail", tail},
		{"byte straddle", straddle},
		{"max values", []uint32{wearMax, 0, wearMax - 1, 1}},
	}
	// Content bits all clear, all set, and cycling through every pattern.
	classes := [][]byte{{0}, {contentMask}, {0, 1, 2, 3}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, cl := range classes {
				checkQuantiles(t, c.w, cl)
			}
		})
	}
}

// FuzzWearQuantiles reads the input as little-endian uint32 values: the
// low two bits become a line's content bits and the rest its wear,
// shifted right to crowd the values into few buckets and provoke ties.
func FuzzWearQuantiles(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{1, 0, 0, 0}, uint8(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 1, 0, 0, 9, 0, 0, 1}, uint8(0))
	f.Add(repeat(byte(0x35), 160), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, shift uint8) {
		w := make([]uint32, len(data)/4)
		classes := make([]byte, len(w))
		for i := range w {
			v := binary.LittleEndian.Uint32(data[4*i:])
			w[i], classes[i] = v>>contentBits>>(shift%30), byte(v)
		}
		checkQuantiles(t, w, classes)
	})
}

// TestWearSelectReadsBank: Quantiles on a bank built through its own
// write path matches a sort of its WearSnapshot, whatever the stored
// content, and an unworn bank answers zero.
func TestWearSelectReadsBank(t *testing.T) {
	b := MustNewBank(Config{Lines: 1 << 12, Endurance: MaxEndurance})
	var sel WearSelect
	if p50, p90, p99 := sel.Quantiles(b); p50|p90|p99 != 0 {
		t.Fatalf("unworn bank: quantiles %d/%d/%d, want 0", p50, p90, p99)
	}
	for pa, n := range hammerShaped(stats.NewRNG(3), 1<<12) {
		b.WriteN(uint64(pa), Content(pa%3), uint64(n))
	}
	p50, p90, p99 := sel.Quantiles(b)
	if got, want := [3]uint64{p50, p90, p99}, sortedQuantiles(b.WearSnapshot(nil)); got != want {
		t.Fatalf("quantiles %v, sort of the snapshot says %v", got, want)
	}
}
