package memserver

import (
	"context"
	"slices"
	"testing"
	"time"

	"securityrbsg/internal/pcm"
	"securityrbsg/internal/stats"
)

// sortedQuantiles is the reference a published percentile must match:
// copy, sort ascending, read index int(q·(n−1)).
func sortedQuantiles(w []uint32) [3]uint64 {
	if len(w) == 0 {
		return [3]uint64{}
	}
	s := slices.Clone(w)
	slices.Sort(s)
	at := func(q float64) uint64 { return uint64(s[int(q*float64(len(s)-1))]) }
	return [3]uint64{at(0.50), at(0.90), at(0.99)}
}

// wearTop is the largest wear a line records: the field saturates one
// past the largest endurance a bank accepts.
const wearTop = pcm.MaxEndurance + 1

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

// applyWear writes line pa of bank w[pa] times, through the bank's own
// write path so the running maximum stays consistent. The stored
// content cycles through every class, so the live line words carry each
// pattern of content bits under their wear.
func applyWear(bank *pcm.Bank, w []uint32) {
	for pa, n := range w {
		bank.WriteN(uint64(pa), pcm.Content(pa%3), uint64(n))
	}
}

// TestWearQuantilesMatchSort: for each wear shape, the percentiles a
// full publish reports match a sort of the bank's wear, and publishing
// leaves that wear untouched. Line i of a passthrough bank of exactly
// len(w) lines takes w[i] writes; the empty shape is an unworn bank of
// the default size. Write counts past wearTop saturate there, so the
// uniform uint32 shape pins about three lines in four to the top.
func TestWearQuantilesMatchSort(t *testing.T) {
	rng := stats.NewRNG(11)
	uniform := make([]uint32, 4096)
	for i := range uniform {
		uniform[i] = uint32(rng.Uint64())
	}
	even := make([]uint32, 4096)
	for i := range even {
		even[i] = 1_000_000 - 100 + uint32(rng.Uint64n(201))
	}
	// p50 and p90 fall among small values, p99 in a heavy tail bytes
	// above them, so the targets part ways in the selection's first pass.
	tail := make([]uint32, 4096)
	for i := range tail {
		tail[i] = uint32(rng.Uint64n(200))
		if i%32 == 0 {
			tail[i] = 256 + uint32(rng.Uint64n(1<<20))
		}
	}
	// Targets whose values differ in every byte force three distinct
	// prefixes through the selection's later passes.
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
		{"uniform uint32", uniform},
		{"even near 1e6", even},
		{"heavy tail", tail},
		{"byte straddle", straddle},
		{"max values", []uint32{wearTop, 0, wearTop - 1, 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := MustNew(Config{Banks: 1, Lines: uint64(len(c.w)), Scheme: SchemeNone})
			bs := s.banks[0]
			bank := bs.ctrl.Bank()
			applyWear(bank, c.w)
			wear := bank.WearSnapshot(nil)
			for pa, n := range c.w {
				if want := min(n, wearTop); wear[pa] != want {
					t.Fatalf("line %d: wear %d after %d writes, want %d", pa, wear[pa], n, want)
				}
			}
			bs.publish(true)
			snap := bs.Snapshot()
			if got, want := [3]uint64{snap.WearP50, snap.WearP90, snap.WearP99}, sortedQuantiles(wear); got != want {
				t.Fatalf("%d lines: published percentiles %v, sort says %v", len(wear), got, want)
			}
			if !slices.Equal(bank.WearSnapshot(nil), wear) {
				t.Fatal("publish modified the bank's wear")
			}
		})
	}
}

// TestPublishAllocs pins the steady-state cost of a full publish to the
// one immutable snapshot it swaps in: the percentile selection adds no
// allocation, and it leaves the bank's wear untouched.
func TestPublishAllocs(t *testing.T) {
	s := MustNew(Config{Banks: 1, Lines: 1 << 12, Scheme: SchemeAdaptive, Seed: 1})
	bs := s.banks[0]
	bank := bs.ctrl.Bank()
	applyWear(bank, hammerShaped(stats.NewRNG(3), int(bank.Lines())))
	before := bank.WearSnapshot(nil)
	if n := testing.AllocsPerRun(50, func() { bs.wearSel.Quantiles(bank) }); n != 0 {
		t.Errorf("percentile selection: %v allocs/run, want 0", n)
	}
	for _, refresh := range []bool{true, false} {
		if n := testing.AllocsPerRun(50, func() { bs.publish(refresh) }); n != 1 {
			t.Errorf("publish(%v): %v allocs/run, want 1 (the snapshot)", refresh, n)
		}
	}
	if !slices.Equal(bank.WearSnapshot(nil), before) {
		t.Fatal("publish modified the bank's wear counters")
	}
	snap := bs.Snapshot()
	if got, want := [3]uint64{snap.WearP50, snap.WearP90, snap.WearP99}, sortedQuantiles(before); got != want {
		t.Fatalf("published percentiles %v, sort says %v", got, want)
	}
}

// TestActorWearRefreshCadence drives one bank with single-op frames
// through executeBatch, so every op boundary is a possible publish
// point. The O(1) counters must republish every SnapshotEvery ops,
// while the percentiles refresh exactly every max(SnapshotEvery, lines)
// ops — matching a sort of the bank's wear at that instant — and carry
// over unchanged in between. After drain the snapshot is exact whatever
// the phase.
func TestActorWearRefreshCadence(t *testing.T) {
	const snapEvery, lines = 16, 1024
	s := MustNew(Config{
		Banks: 2, Lines: 2 * lines, Scheme: SchemeNone,
		QueueDepth: 8, SnapshotEvery: snapEvery,
	})
	s.Start()
	bs := s.banks[0]
	if bs.wearEvery != lines {
		t.Fatalf("wearEvery = %d, want max(%d, %d)", bs.wearEvery, snapEvery, lines)
	}
	rng := stats.NewRNG(9)
	var last [3]uint64 // percentiles of the latest refresh (all zero at boot)
	const total = 3*lines + lines/2 + 7
	sc := s.newBatchScratch()
	sc.ops = make([]BatchOp, 1)
	for n := uint64(1); n <= total; n++ {
		la := rng.Uint64n(lines)
		if rng.Uint64n(2) == 0 {
			la = 5 // the hammered line
		}
		sc.ops[0] = BatchOp{Line: 2 * la, Data: uint8(pcm.Ones)} // bank 0's local line la
		if s.executeBatch(sc); sc.resp.Applied != 1 {
			t.Fatalf("op %d: applied %d, rejected %d", n, sc.resp.Applied, sc.resp.Rejected)
		}
		resetRuns(sc)
		if n%snapEvery != 0 {
			continue
		}
		snap := waitPublished(t, bs, n)
		if n%lines == 0 {
			// Done precedes the publish, and the next write waits for
			// this loop, so the array is quiescent here.
			last = sortedQuantiles(bs.ctrl.Bank().WearSnapshot(nil))
		}
		if got := [3]uint64{snap.WearP50, snap.WearP90, snap.WearP99}; got != last {
			t.Fatalf("after %d ops: percentiles %v, want %v from the refresh at op %d", n, got, last, n/lines*lines)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	snap := bs.Snapshot()
	want := sortedQuantiles(s.Memory().Bank(0).Bank().WearSnapshot(nil))
	if snap.Stats.DemandWrites != total || [3]uint64{snap.WearP50, snap.WearP90, snap.WearP99} != want {
		t.Fatalf("drained snapshot: %d writes, percentiles %v; want %d writes, %v",
			snap.Stats.DemandWrites, [3]uint64{snap.WearP50, snap.WearP90, snap.WearP99}, uint64(total), want)
	}
	if want == [3]uint64{} {
		t.Fatal("test wear never moved the percentiles off zero")
	}
}

// waitPublished waits for the snapshot that covers the first n ops: the
// executor completes a run before it publishes.
func waitPublished(t *testing.T, bs *bankState, n uint64) *BankSnapshot {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap := bs.Snapshot()
		if snap.Stats.DemandWrites == n {
			return snap
		}
		if time.Now().After(deadline) {
			t.Fatalf("no snapshot covering %d ops (latest covers %d)", n, snap.Stats.DemandWrites)
		}
		time.Sleep(10 * time.Microsecond)
	}
}
