package tablewl

import (
	"testing"

	"securityrbsg/internal/schemetest"
	"securityrbsg/internal/stats"
)

func TestValidation(t *testing.T) {
	if _, err := New(Config{Lines: 0, Interval: 1}); err == nil {
		t.Error("zero lines must fail")
	}
	if _, err := New(Config{Lines: 8, Interval: 0}); err == nil {
		t.Error("zero interval must fail")
	}
	if _, err := New(Config{Lines: 1 << 32, Interval: 1}); err == nil {
		t.Error("oversized table must fail")
	}
}

func TestInitialIdentity(t *testing.T) {
	s := MustNew(Config{Lines: 16, Interval: 4})
	for la := uint64(0); la < 16; la++ {
		if s.Translate(la) != la {
			t.Fatal("initial mapping must be the identity")
		}
	}
	if err := schemetest.CheckBijection(s); err != nil {
		t.Fatal(err)
	}
}

func TestDataIntegrity(t *testing.T) {
	s := MustNew(Config{Lines: 64, Interval: 8})
	if _, err := schemetest.Exercise(s, 20000, 17, 1); err != nil {
		t.Fatal(err)
	}
}

func TestHammerTriggersMigration(t *testing.T) {
	s := MustNew(Config{Lines: 32, Interval: 8, HotThreshold: 4})
	m := schemetest.NewTokenMover(s)
	for i := 0; i < 64; i++ {
		s.NoteWrite(5, m)
	}
	if s.Swaps() == 0 {
		t.Fatal("hammering one line never triggered a migration")
	}
	if err := schemetest.Verify(s, m); err != nil {
		t.Fatal(err)
	}
}

// TestLevelsHotTraffic is the scheme working as designed: under skewed
// traffic the hot logical line keeps being re-seated on cold physical
// lines, spreading wear.
func TestLevelsHotTraffic(t *testing.T) {
	s := MustNew(Config{Lines: 32, Interval: 8, HotThreshold: 4})
	m := schemetest.NewTokenMover(s)
	rng := stats.NewRNG(3)
	touched := map[uint64]bool{}
	for i := 0; i < 20000; i++ {
		la := uint64(7)
		if rng.Float64() < 0.2 {
			la = rng.Uint64n(32)
		}
		touched[s.Translate(7)] = true
		s.NoteWrite(la, m)
	}
	if len(touched) < 8 {
		t.Fatalf("hot line visited only %d physical lines — not leveling", len(touched))
	}
}

// TestDeterminism is the paper's indictment of the family: two instances
// fed the same write stream make identical decisions, so an attacker can
// replay the controller's state from its own writes.
func TestDeterminism(t *testing.T) {
	a := MustNew(Config{Lines: 64, Interval: 8})
	b := MustNew(Config{Lines: 64, Interval: 8})
	ma, mb := schemetest.NewTokenMover(a), schemetest.NewTokenMover(b)
	rng := stats.NewRNG(9)
	for i := 0; i < 10000; i++ {
		la := rng.Uint64n(64)
		a.NoteWrite(la, ma)
		b.NoteWrite(la, mb)
	}
	for la := uint64(0); la < 64; la++ {
		if a.Translate(la) != b.Translate(la) {
			t.Fatalf("replicas diverged at LA %d — scheme is not deterministic?!", la)
		}
	}
}

func TestHotThresholdGatesNoopActions(t *testing.T) {
	s := MustNew(Config{Lines: 64, Interval: 4, HotThreshold: 1000})
	m := schemetest.NewTokenMover(s)
	rng := stats.NewRNG(4)
	for i := 0; i < 4000; i++ {
		s.NoteWrite(rng.Uint64n(64), m)
	}
	if s.Swaps() != 0 {
		t.Fatalf("uniform traffic below threshold caused %d swaps", s.Swaps())
	}
}

// tableBits returns the SRAM cost of the indirection state: two tables of
// N entries × log2 N bits plus N write counters — the "great space and
// time overhead" that motivated algebraic schemes (Section II-A).
func tableBits(s *Scheme) uint64 {
	b := uint64(0)
	for v := s.cfg.Lines - 1; v > 0; v >>= 1 {
		b++
	}
	const counterBits = 32
	return s.cfg.Lines * (2*b + counterBits)
}

func TestTableBits(t *testing.T) {
	s := MustNew(Config{Lines: 1 << 22, Interval: 64})
	// 2 tables × 22 bits + 32-bit counter per line = 76 bits × 4M lines
	// ≈ 38 MB — the paper's "great space overhead" versus RBSG's ~100 B.
	if got := tableBits(s); got != (1<<22)*(2*22+32) {
		t.Fatalf("table bits = %d", got)
	}
}

func BenchmarkTranslate(b *testing.B) {
	s := MustNew(Config{Lines: 1 << 16, Interval: 64})
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += s.Translate(uint64(i) & (1<<16 - 1))
	}
	_ = sink
}
