package pcm

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func testBank(lines, endurance uint64) *Bank {
	return MustNewBank(Config{Lines: lines, Endurance: endurance})
}

func TestContentString(t *testing.T) {
	if Zeros.String() != "ALL-0" || Ones.String() != "ALL-1" || Mixed.String() != "MIXED" {
		t.Fatal("content names changed")
	}
}

func TestTimingWriteNs(t *testing.T) {
	tm := DefaultTiming
	if tm.WriteNs(Zeros) != 125 {
		t.Errorf("ALL-0 write = %d, want 125", tm.WriteNs(Zeros))
	}
	if tm.WriteNs(Ones) != 1000 || tm.WriteNs(Mixed) != 1000 {
		t.Error("writes containing SET bits must take the SET latency")
	}
}

// TestFig4RemapLatencies verifies that the device model reproduces the
// remapping latencies of the paper's Fig 4 exactly.
func TestFig4RemapLatencies(t *testing.T) {
	b := testBank(4, 1000)
	b.Write(0, Zeros)
	b.Write(1, Ones)
	b.Write(2, Ones)

	if got := b.Move(0, 3); got != 250 {
		t.Errorf("moving ALL-0 line = %d ns, want 250 (Fig 4a)", got)
	}
	if got := b.Move(1, 3); got != 1125 {
		t.Errorf("moving ALL-1 line = %d ns, want 1125 (Fig 4a)", got)
	}

	b2 := testBank(4, 1000)
	if got := b2.Swap(0, 1); got != 500 {
		t.Errorf("swapping two ALL-0 lines = %d ns, want 500 (Fig 4b)", got)
	}
	b2.Write(0, Ones)
	if got := b2.Swap(0, 1); got != 1375 {
		t.Errorf("swapping ALL-1 with ALL-0 = %d ns, want 1375 (Fig 4b)", got)
	}
	b2.Write(0, Ones)
	b2.Write(1, Ones)
	if got := b2.Swap(0, 1); got != 2250 {
		t.Errorf("swapping two ALL-1 lines = %d ns, want 2250 (Fig 4b)", got)
	}
}

func TestWriteAsymmetryIsTheSideChannel(t *testing.T) {
	b := testBank(2, 1000)
	fast := b.Write(0, Zeros)
	slow := b.Write(0, Ones)
	if slow/fast != 8 {
		t.Fatalf("SET/RESET ratio = %d/%d, paper says 8x", slow, fast)
	}
}

func TestEnduranceFailure(t *testing.T) {
	b := testBank(4, 10)
	for i := 0; i < 10; i++ {
		b.Write(2, Mixed)
		if b.Failed() {
			t.Fatalf("failed after %d writes, endurance is 10", i+1)
		}
	}
	b.Write(2, Mixed)
	if !b.Failed() {
		t.Fatal("line must fail after endurance+1 writes")
	}
	pa, at, ok := b.FirstFailure()
	if !ok || pa != 2 {
		t.Fatalf("first failure at PA %d (ok=%v), want 2", pa, ok)
	}
	if at != b.ElapsedNs() {
		t.Fatalf("failure time %d != elapsed %d", at, b.ElapsedNs())
	}
	if b.FailedLines() != 1 {
		t.Fatalf("failed lines = %d", b.FailedLines())
	}
}

func TestStuckAtFault(t *testing.T) {
	b := testBank(2, 3)
	b.Write(0, Ones)
	b.Write(0, Ones)
	b.Write(0, Ones)
	b.Write(0, Zeros) // exceeds endurance: content sticks at Ones
	if got := b.Peek(0); got != Ones {
		t.Fatalf("stuck-at line changed content to %v", got)
	}
	// Time and wear still accrue on a dead line.
	w := b.Wear(0)
	b.Write(0, Zeros)
	if b.Wear(0) != w+1 {
		t.Fatal("wear must keep accruing on a failed line")
	}
}

func TestReadDoesNotWear(t *testing.T) {
	b := testBank(2, 5)
	b.Write(1, Ones)
	for i := 0; i < 100; i++ {
		if c, ns := b.Read(1); c != Ones || ns != 125 {
			t.Fatalf("read %v/%d", c, ns)
		}
	}
	if b.Wear(1) != 1 {
		t.Fatalf("reads changed wear to %d", b.Wear(1))
	}
	if b.TotalReads() != 100 {
		t.Fatalf("total reads = %d", b.TotalReads())
	}
}

func TestElapsedAccounting(t *testing.T) {
	b := testBank(2, 100)
	b.Write(0, Zeros) // 125
	b.Write(1, Ones)  // 1000
	b.Read(0)         // 125
	b.AdvanceNs(50)
	if b.ElapsedNs() != 1300 {
		t.Fatalf("elapsed = %d, want 1300", b.ElapsedNs())
	}
	if b.TotalWrites() != 2 {
		t.Fatalf("writes = %d", b.TotalWrites())
	}
}

func TestMaxWear(t *testing.T) {
	b := testBank(8, 1000)
	for i := 0; i < 7; i++ {
		b.Write(5, Mixed)
	}
	b.Write(3, Mixed)
	pa, w := b.MaxWear()
	if pa != 5 || w != 7 {
		t.Fatalf("max wear at %d (%d), want 5 (7)", pa, w)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewBank(Config{Lines: 0, Endurance: 10}); err == nil {
		t.Error("zero lines must fail")
	}
	if _, err := NewBank(Config{Lines: 4}); err == nil {
		t.Error("zero endurance must fail")
	}
	b := MustNewBank(Config{Lines: 4, Endurance: 10})
	if b.Config().Timing != DefaultTiming {
		t.Error("timing should default")
	}
	if MaxEndurance != 1<<30-2 {
		t.Errorf("MaxEndurance = %d, want 2^30 − 2", MaxEndurance)
	}
	if _, err := NewBank(Config{Lines: 4, Endurance: MaxEndurance}); err != nil {
		t.Errorf("endurance MaxEndurance: %v", err)
	}
	if _, err := NewBank(Config{Lines: 4, Endurance: MaxEndurance + 1}); err == nil {
		t.Error("endurance MaxEndurance+1 must fail: the failing write's wear would not fit the wear field")
	}
}

// TestFailedLineContentSticks: once a line has failed, no write path
// changes its content — not Write, not WriteN, not a Shard's Write —
// while its wear keeps counting.
func TestFailedLineContentSticks(t *testing.T) {
	b := testBank(4, 3)
	b.WriteN(1, Mixed, 3)
	b.Write(1, Zeros) // the failing write: content stays Mixed
	s := b.Shard(0, 4)
	for i, write := range []func(){
		func() { b.Write(1, Ones) },
		func() { b.WriteN(1, Zeros, 5) },
		func() { b.WriteN(1, Ones, 1) },
		func() { s.Write(1, Zeros) },
		func() { s.Write(1, Ones) },
	} {
		before := b.Wear(1)
		write()
		if got := b.Peek(1); got != Mixed {
			t.Fatalf("write path %d changed a failed line's content to %v", i, got)
		}
		if b.Wear(1) <= before {
			t.Fatalf("write path %d: wear %d did not move past %d", i, b.Wear(1), before)
		}
	}
	b.MergeShards(s)
	if b.FailedLines() != 1 {
		t.Fatalf("FailedLines = %d, want 1", b.FailedLines())
	}
}

// TestFailureAtMaxEndurance: at the largest endurance the failing write
// (wear MaxEndurance+1, the wear field's top value) is booked exactly
// once with its exact time, through Write, WriteN and a Shard, and the
// writes after it book nothing more.
func TestFailureAtMaxEndurance(t *testing.T) {
	b := testBank(4, MaxEndurance)
	b.WriteN(0, Ones, MaxEndurance) // 1000 ns each
	if b.Failed() || b.WritesToFailure(0) != 1 {
		t.Fatalf("failed early (%v) or miscounted: %d writes to failure", b.Failed(), b.WritesToFailure(0))
	}
	b.Write(0, Zeros)
	pa, at, ok := b.FirstFailure()
	if want := uint64(MaxEndurance)*1000 + 125; !ok || pa != 0 || at != want {
		t.Fatalf("FirstFailure = (%d, %d, %v), want (0, %d, true)", pa, at, ok, want)
	}
	b.Write(0, Ones)
	b.WriteN(0, Ones, 10)
	if b.FailedLines() != 1 || b.Wear(0) != wearMax {
		t.Fatalf("after the failure: %d failed lines, wear %d; want 1, %d", b.FailedLines(), b.Wear(0), wearMax)
	}

	// A batch that crosses: its (MaxEndurance+1)-th write fails line 1.
	clock := b.ElapsedNs()
	b.WriteN(1, Zeros, MaxEndurance+5)
	if b.FailedLines() != 2 || b.Wear(1) != wearMax || b.ElapsedNs() != clock+(MaxEndurance+5)*125 {
		t.Fatalf("crossing batch: %d failed lines, wear %d, clock %d", b.FailedLines(), b.Wear(1), b.ElapsedNs())
	}

	// Through a shard: the failing write is its own, booked once at merge.
	s2 := testBank(4, MaxEndurance)
	s2.WriteN(3, Mixed, MaxEndurance)
	clock = s2.ElapsedNs()
	sh := s2.Shard(2, 4)
	sh.Write(3, Ones)
	sh.Write(3, Ones)
	s2.MergeShards(sh)
	pa, at, ok = s2.FirstFailure()
	if !ok || pa != 3 || at != clock+1000 || s2.FailedLines() != 1 || s2.Wear(3) != wearMax {
		t.Fatalf("shard: FirstFailure (%d, %d, %v), %d failed lines, wear %d; want (3, %d, true), 1, %d",
			pa, at, ok, s2.FailedLines(), s2.Wear(3), clock+1000, wearMax)
	}
}

// TestWearSaturates: a failed line's wear stops at 2^30 − 1 instead of
// wrapping, through single and batched writes, and MaxWear agrees.
func TestWearSaturates(t *testing.T) {
	b := testBank(2, 10)
	b.WriteN(1, Ones, 1<<40)
	if b.Wear(1) != wearMax {
		t.Fatalf("wear after 2^40 writes = %d, want %d", b.Wear(1), wearMax)
	}
	b.Write(1, Ones)
	b.WriteN(1, Ones, 1<<32)
	if b.Wear(1) != wearMax || b.FailedLines() != 1 {
		t.Fatalf("wear %d, %d failed lines; want %d, 1", b.Wear(1), b.FailedLines(), wearMax)
	}
	if pa, w := b.MaxWear(); pa != 1 || w != wearMax {
		t.Fatalf("MaxWear = (%d, %d), want (1, %d)", pa, w, wearMax)
	}
	if b.Peek(1) != Ones {
		t.Fatalf("content %v, want ALL-1", b.Peek(1))
	}
}

// TestContentNeverReachesWear: whatever Content value a write carries,
// the line's wear moves by exactly the writes made; only the class's
// two bits are stored.
func TestContentNeverReachesWear(t *testing.T) {
	b := testBank(4, 1000)
	s := b.Shard(2, 4)
	for c := 0; c < 256; c++ {
		b.Write(0, Content(c))
		b.WriteN(1, Content(c), 2)
		s.Write(2, Content(c))
		for pa, want := range []uint64{uint64(c + 1), 2 * uint64(c+1), uint64(c + 1)} {
			if b.Wear(uint64(pa)) != want {
				t.Fatalf("Content(%d): line %d wear %d, want %d", c, pa, b.Wear(uint64(pa)), want)
			}
			if got := b.Peek(uint64(pa)); got != Content(c)&contentMask {
				t.Fatalf("Content(%d): line %d reads back %v", c, pa, got)
			}
		}
	}
}

func TestBadAddressPanics(t *testing.T) {
	b := testBank(4, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range write")
		}
	}()
	b.Write(4, Zeros)
}

func TestWearNeverDecreases(t *testing.T) {
	b := testBank(16, 1000)
	f := func(pa uint64, c uint8) bool {
		pa %= 16
		before := b.Wear(pa)
		b.Write(pa, Content(c%3))
		return b.Wear(pa) == before+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestWritesToFailure: the count names exactly the write that fails the
// line, and reads 0 once it has failed.
func TestWritesToFailure(t *testing.T) {
	b := testBank(64, 1000)
	for i, pa := range []uint64{0, 17, 63} {
		b.WriteN(pa, Ones, 3)
		j := b.WritesToFailure(pa)
		if j != 1000+1-3 {
			t.Fatalf("line %d: WritesToFailure = %d with endurance 1000 after 3 writes", pa, j)
		}
		b.WriteN(pa, Ones, j-1)
		if b.FailedLines() != uint64(i) || b.WritesToFailure(pa) != 1 {
			t.Fatalf("line %d: failed early or miscounted (%d left)", pa, b.WritesToFailure(pa))
		}
		b.Write(pa, Ones)
		if b.FailedLines() != uint64(i+1) || b.WritesToFailure(pa) != 0 {
			t.Fatalf("line %d: the counted write did not fail it (%d left)", pa, b.WritesToFailure(pa))
		}
	}
}

func TestEnergyAccounting(t *testing.T) {
	b := testBank(4, 100)
	b.Write(0, Zeros)
	b.Write(1, Ones)
	b.Write(2, Mixed)
	b.Read(0)
	c := b.OpCounts()
	if c.Reads != 1 || c.ResetWrites != 1 || c.SetWrites != 2 {
		t.Fatalf("op counts %+v", c)
	}
	m := EnergyModel{ReadPJ: 1, ResetPJ: 10, SetPJ: 100}
	want := (1 + 10 + 200) * 1e-6
	if got := b.EnergyMicrojoules(m); got < want*0.999 || got > want*1.001 {
		t.Fatalf("energy %v µJ, want ≈%v", got, want)
	}
	// The default model makes a SET-heavy workload costlier than a
	// RESET-only one of the same length.
	if DefaultEnergy.Energy(OpCounts{SetWrites: 100}) <= DefaultEnergy.Energy(OpCounts{ResetWrites: 100}) {
		t.Fatal("SET-heavy traffic should cost more energy")
	}
}

// TestBankFillsCacheLines: a Bank is a whole number of 64-byte cache
// lines (see its trailing pad).
func TestBankFillsCacheLines(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the pad is sized for 64-bit platforms")
	}
	if n := unsafe.Sizeof(Bank{}); n%64 != 0 {
		t.Fatalf("Bank is %d bytes, want a multiple of 64: resize its pad", n)
	}
}

// TestShardFillsCacheLines: a Shard is a whole number of 64-byte cache
// lines (see its trailing pad).
func TestShardFillsCacheLines(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the pad is sized for 64-bit platforms")
	}
	if n := unsafe.Sizeof(Shard{}); n%64 != 0 {
		t.Fatalf("Shard is %d bytes, want a multiple of 64: resize its pad", n)
	}
}

func BenchmarkBankWrite(b *testing.B) {
	bank := testBank(1<<16, MaxEndurance)
	for i := 0; i < b.N; i++ {
		bank.Write(uint64(i)&(1<<16-1), Mixed)
	}
}
