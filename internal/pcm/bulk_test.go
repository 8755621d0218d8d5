package pcm

import (
	"testing"
)

// assertBanksEqual compares every observable of two banks.
func assertBanksEqual(t *testing.T, name string, loop, batch *Bank) {
	t.Helper()
	if lw, bw := loop.TotalWrites(), batch.TotalWrites(); lw != bw {
		t.Errorf("%s: TotalWrites %d vs %d", name, lw, bw)
	}
	if lr, br := loop.TotalReads(), batch.TotalReads(); lr != br {
		t.Errorf("%s: TotalReads %d vs %d", name, lr, br)
	}
	if le, be := loop.ElapsedNs(), batch.ElapsedNs(); le != be {
		t.Errorf("%s: ElapsedNs %d vs %d", name, le, be)
	}
	if lf, bf := loop.FailedLines(), batch.FailedLines(); lf != bf {
		t.Errorf("%s: FailedLines %d vs %d", name, lf, bf)
	}
	lpa, lns, lok := loop.FirstFailure()
	bpa, bns, bok := batch.FirstFailure()
	if lpa != bpa || lns != bns || lok != bok {
		t.Errorf("%s: FirstFailure (%d,%d,%v) vs (%d,%d,%v)", name, lpa, lns, lok, bpa, bns, bok)
	}
	lmp, lmw := loop.MaxWear()
	bmp, bmw := batch.MaxWear()
	if lmp != bmp || lmw != bmw {
		t.Errorf("%s: MaxWear (%d,%d) vs (%d,%d)", name, lmp, lmw, bmp, bmw)
	}
	for pa := uint64(0); pa < loop.Lines(); pa++ {
		if loop.lines[pa] != batch.lines[pa] {
			t.Fatalf("%s: line %d holds wear %d, %v vs wear %d, %v", name, pa,
				loop.Wear(pa), loop.Peek(pa), batch.Wear(pa), batch.Peek(pa))
		}
	}
}

func TestWriteNMatchesLoop(t *testing.T) {
	// A batch plan that crosses endurance (50) mid-batch on line 3,
	// exactly at a batch boundary on line 5, and keeps hammering a failed
	// line (1) past its budget.
	plan := []struct {
		pa uint64
		c  Content
		n  uint64
	}{
		{0, Ones, 7},
		{1, Zeros, 60}, // crosses endurance inside the batch
		{2, Mixed, 1},
		{3, Ones, 49},
		{3, Zeros, 5}, // crosses mid-batch
		{5, Ones, 50}, // lands exactly on the budget
		{5, Zeros, 1}, // the crossing write, alone
		{1, Ones, 10}, // already failed: pure wear+time
		{0, Zeros, 0}, // empty batch is a no-op
	}
	t.Run("uniform", func(t *testing.T) {
		cfg := Config{Lines: 8, Endurance: 50}
		loop, batch := MustNewBank(cfg), MustNewBank(cfg)
		for _, p := range plan {
			var loopNs uint64
			for i := uint64(0); i < p.n; i++ {
				loopNs += loop.Write(p.pa, p.c)
			}
			batchNs := batch.WriteN(p.pa, p.c, p.n)
			if loopNs != batchNs {
				t.Fatalf("batch (%d,%v,%d): latency %d vs %d", p.pa, p.c, p.n, loopNs, batchNs)
			}
		}
		assertBanksEqual(t, "uniform", loop, batch)
	})
}

func TestWriteNFirstFailureTimeIsExact(t *testing.T) {
	cfg := Config{Lines: 4, Endurance: 10}
	b := MustNewBank(cfg)
	// 3 ALL-1 writes (1000 ns each), then a batch of 20 ALL-0 writes
	// (125 ns each) whose 8th write is the crossing one.
	b.WriteN(2, Ones, 3)
	b.WriteN(2, Zeros, 20)
	pa, at, ok := b.FirstFailure()
	if !ok || pa != 2 {
		t.Fatalf("FirstFailure = (%d,%d,%v), want line 2 failed", pa, at, ok)
	}
	want := uint64(3*1000 + 8*125)
	if at != want {
		t.Fatalf("first-failure time %d, want %d", at, want)
	}
}

// TestMaxWearIncremental is the satellite regression test: hammer, query,
// hammer, query — the cached maximum must track a fresh O(n) scan at
// every step, including the earliest-PA tie-break.
func TestMaxWearIncremental(t *testing.T) {
	cfg := Config{Lines: 16, Endurance: MaxEndurance}
	b := MustNewBank(cfg)
	scan := func() (uint64, uint64) {
		var bestW uint32
		var bestPA uint64
		for i, w := range b.WearSnapshot(nil) {
			if w > bestW {
				bestW = w
				bestPA = uint64(i)
			}
		}
		return bestPA, uint64(bestW)
	}
	checkStep := func(step string) {
		t.Helper()
		wantPA, wantW := scan()
		gotPA, gotW := b.MaxWear()
		if gotPA != wantPA || gotW != wantW {
			t.Fatalf("%s: MaxWear = (%d,%d), scan says (%d,%d)", step, gotPA, gotW, wantPA, wantW)
		}
	}
	checkStep("fresh bank")
	// Ties: lines 9 then 4 then 12 each reach wear 3; the scan reports
	// the lowest address (4).
	for _, pa := range []uint64{9, 4, 12} {
		b.WriteN(pa, Ones, 3)
		checkStep("tie build-up")
	}
	if pa, _ := b.MaxWear(); pa != 4 {
		t.Fatalf("tie-break: MaxWear PA = %d, want 4", pa)
	}
	// Hammer-then-query loop, mixing single writes and batches.
	for i := 0; i < 200; i++ {
		pa := uint64(i*7) % b.Lines()
		if i%3 == 0 {
			b.WriteN(pa, Zeros, uint64(i%11)+1)
		} else {
			b.Write(pa, Ones)
		}
		checkStep("hammer loop")
	}
}

func TestWearSnapshotDecoupled(t *testing.T) {
	b := MustNewBank(Config{Lines: 4, Endurance: 100})
	b.Write(1, Ones)
	snap := b.WearSnapshot(nil)
	b.Write(1, Ones)
	if snap[1] != 1 {
		t.Fatalf("snapshot mutated under the bank: wear[1] = %d, want 1", snap[1])
	}
	// Buffer reuse keeps the copy semantics, and a short buffer grows.
	snap2 := b.WearSnapshot(snap)
	if snap2[1] != 2 {
		t.Fatalf("reused snapshot: wear[1] = %d, want 2", snap2[1])
	}
	if short := b.WearSnapshot(make([]uint32, 1, 2)); len(short) != 4 || short[1] != 2 {
		t.Fatalf("grown snapshot %v, want 4 lines with wear[1] = 2", short)
	}
}

func TestShardMatchesSerial(t *testing.T) {
	cfg := Config{Lines: 12, Endurance: 20}
	serial, sharded := MustNewBank(cfg), MustNewBank(cfg)

	// Reference: serial run over two halves, first [0,6) then [6,12).
	ops := func(b interface {
		Write(uint64, Content) uint64
		Read(uint64) (Content, uint64)
		Move(uint64, uint64) uint64
		Swap(uint64, uint64) uint64
	}, lo uint64) {
		b.Write(lo+0, Ones)
		b.Write(lo+1, Zeros)
		b.Move(lo+0, lo+2)
		b.Swap(lo+1, lo+3)
		for i := uint64(0); i < 25; i++ { // fails line lo+4 (endurance 20)
			b.Write(lo+4, Mixed)
		}
		b.Read(lo + 5)
	}
	ops(serial, 0)
	ops(serial, 6)

	s0 := sharded.Shard(0, 6)
	s1 := sharded.Shard(6, 12)
	ops(s0, 0)
	ops(s1, 6)
	sharded.MergeShards(s0, s1)

	assertBanksEqual(t, "shard", serial, sharded)
}

func TestShardFirstFailureSerialization(t *testing.T) {
	cfg := Config{Lines: 8, Endurance: 5}
	b := MustNewBank(cfg)
	b.AdvanceNs(1000) // pre-existing clock offset must be respected
	s0 := b.Shard(0, 4)
	s1 := b.Shard(4, 8)
	// Both shards fail a line; in merge order (s0 first) s0's failure is
	// earlier on the serialized clock even though s1 failed "sooner" in
	// its own relative time.
	for i := 0; i < 7; i++ {
		s0.Write(0, Ones) // 6th write fails at rel 6*1000
	}
	for i := 0; i < 6; i++ {
		s1.Write(4, Zeros) // 6th write fails at rel 6*125
	}
	b.MergeShards(s0, s1)
	pa, at, ok := b.FirstFailure()
	if !ok || pa != 0 {
		t.Fatalf("FirstFailure = (%d,%d,%v), want line 0", pa, at, ok)
	}
	if want := uint64(1000 + 6*1000); at != want {
		t.Fatalf("serialized failure time %d, want %d", at, want)
	}
	if got := b.FailedLines(); got != 2 {
		t.Fatalf("FailedLines = %d, want 2", got)
	}
	if want := uint64(1000 + 7*1000 + 6*125); b.ElapsedNs() != want {
		t.Fatalf("ElapsedNs = %d, want %d", b.ElapsedNs(), want)
	}
}

func TestShardOutOfRangePanics(t *testing.T) {
	b := MustNewBank(Config{Lines: 8, Endurance: 5})
	s := b.Shard(0, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-shard write")
		}
	}()
	s.Write(4, Ones)
}

// TestShardsSplitAtOddBoundary: two shards split at an odd line, as the
// sweep kernel splits a bank at multiples of per+1, written from two
// goroutines at once, leave every line word equal to a serial run's.
// The boundary lines are the hottest, so a layout that put two lines'
// state in one byte would show here under -race.
func TestShardsSplitAtOddBoundary(t *testing.T) {
	const split, lines = 33, 66
	cfg := Config{Lines: lines, Endurance: 5000}
	serial, sharded := MustNewBank(cfg), MustNewBank(cfg)
	ops := func(b interface {
		Write(uint64, Content) uint64
		Move(uint64, uint64) uint64
		Swap(uint64, uint64) uint64
	}, lo, hi uint64) {
		for i := uint64(0); i < 20000; i++ {
			edge := hi - 1 - i%2 // the shard's last two lines
			if lo > 0 {
				edge = lo + i%2 // its first two
			}
			b.Write(edge, Content(i%3))
			b.Write(lo+i*7%(hi-lo), Content(i%5%3))
			if i%64 == 0 {
				b.Move(edge, lo+i%(hi-lo))
				b.Swap(lo+i*3%(hi-lo), edge)
			}
		}
	}
	ops(serial, 0, split)
	ops(serial, split, lines)

	s0, s1 := sharded.Shard(0, split), sharded.Shard(split, lines)
	done := make(chan struct{})
	go func() {
		defer close(done)
		ops(s1, split, lines)
	}()
	ops(s0, 0, split)
	<-done
	sharded.MergeShards(s0, s1)

	if !serial.Failed() {
		t.Fatal("no line failed: raise the write count so the stuck-at path runs too")
	}
	assertBanksEqual(t, "odd split", serial, sharded)
}

func BenchmarkBankWriteN(b *testing.B) {
	bank := MustNewBank(Config{Lines: 1 << 10, Endurance: MaxEndurance})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bank.WriteN(uint64(i)&1023, Ones, 1000)
	}
}
