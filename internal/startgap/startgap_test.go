package startgap

import (
	"testing"

	"securityrbsg/internal/schemetest"
	"securityrbsg/internal/wear"
)

func TestValidation(t *testing.T) {
	if _, err := New(0, 1, 0); err == nil {
		t.Error("zero lines must fail")
	}
	if _, err := New(8, 0, 0); err == nil {
		t.Error("zero interval must fail")
	}
}

func TestInitialMapping(t *testing.T) {
	r := MustNew(8, 4, 0)
	for la := uint64(0); la < 8; la++ {
		if pa := r.Translate(la); pa != la {
			t.Fatalf("initial Translate(%d) = %d", la, pa)
		}
	}
	if r.Gap() != 8 || r.Start() != 0 {
		t.Fatalf("initial registers gap=%d start=%d", r.Gap(), r.Start())
	}
}

// TestPaperFig2 replays the remapping round of the paper's Fig 2 (8 lines,
// 9 slots): after the first movement IA7 sits in slot 8; after a full
// round every line has shifted down by one.
func TestPaperFig2(t *testing.T) {
	s := &Single{Region: MustNew(8, 1, 0)}
	m := schemetest.NewTokenMover(s)

	s.Region.MoveGap(m) // 1st remapping: slot 7 → slot 8
	if got := s.Translate(7); got != 8 {
		t.Fatalf("after 1st remapping IA7 at %d, want 8 (Fig 2b)", got)
	}
	for i := 0; i < 8; i++ { // complete the round
		s.Region.MoveGap(m)
	}
	// Fig 2(d): next round begun, IA7 wrapped to slot 0.
	if got := s.Translate(7); got != 0 {
		t.Fatalf("after full round IA7 at %d, want 0 (Fig 2d)", got)
	}
	for la := uint64(0); la < 7; la++ {
		if got := s.Translate(la); got != la+1 {
			t.Fatalf("after full round IA%d at %d, want %d", la, got, la+1)
		}
	}
	if err := schemetest.Verify(s, m); err != nil {
		t.Fatal(err)
	}
	if s.Region.Rounds() != 1 || s.Region.Movements() != 9 {
		t.Fatalf("rounds=%d movements=%d", s.Region.Rounds(), s.Region.Movements())
	}
}

// TestDataIntegrityLong drives many rounds and checks the mapping/data
// invariant continuously.
func TestDataIntegrityLong(t *testing.T) {
	s := &Single{Region: MustNew(37, 3, 0)} // awkward odd size on purpose
	if _, err := schemetest.ExerciseHammer(s, 11, 37*3*20, 7); err != nil {
		t.Fatal(err)
	}
}

func TestDataIntegrityRandomTraffic(t *testing.T) {
	s, err := NewSingle(64, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := schemetest.Exercise(s, 64*5*10, 13, 1); err != nil {
		t.Fatal(err)
	}
}

func TestIntervalGatesMovements(t *testing.T) {
	s := &Single{Region: MustNew(16, 10, 0)}
	m := schemetest.NewTokenMover(s)
	for i := 0; i < 9; i++ {
		if ns := s.NoteWrite(0, m); ns != 0 {
			t.Fatalf("movement before interval elapsed (write %d)", i+1)
		}
	}
	s.NoteWrite(0, m)
	if m.Moves != 1 {
		t.Fatalf("10th write should have moved the gap, moves=%d", m.Moves)
	}
}

func TestBaseOffset(t *testing.T) {
	r := MustNew(8, 1, 100)
	if pa := r.Translate(0); pa != 100 {
		t.Fatalf("base offset ignored: %d", pa)
	}
	mv := &recordingMover{}
	r.MoveGap(mv)
	if mv.src != 107 || mv.dst != 108 {
		t.Fatalf("movement at %d→%d, want 107→108", mv.src, mv.dst)
	}
}

type recordingMover struct{ src, dst uint64 }

func (m *recordingMover) Move(src, dst uint64) uint64 {
	m.src, m.dst = src, dst
	return 0
}

func (m *recordingMover) Swap(x, y uint64) uint64 { return 0 }

func TestTranslatePanicsOutOfRange(t *testing.T) {
	r := MustNew(8, 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.Translate(8)
}

// TestUniformWearUnderHammer is the scheme's whole purpose: hammering one
// logical address spreads wear across all slots of the region.
func TestUniformWearUnderHammer(t *testing.T) {
	const n, psi = 16, 2
	s := &Single{Region: MustNew(n, psi, 0)}
	m := schemetest.NewTokenMover(s)
	wear := make([]uint64, n+1)
	rounds := 50
	for i := 0; i < rounds*(n+1)*psi; i++ {
		wear[s.Translate(3)]++
		s.NoteWrite(3, m)
	}
	min, max := wear[0], wear[0]
	for _, w := range wear {
		if w < min {
			min = w
		}
		if w > max {
			max = w
		}
	}
	if float64(min) < 0.5*float64(max) {
		t.Fatalf("hammered wear spread min=%d max=%d — not leveled", min, max)
	}
}

func TestWritesPerRound(t *testing.T) {
	r := MustNew(8, 4, 0)
	if got := r.WritesPerRound(); got != 36 {
		t.Fatalf("WritesPerRound = %d, want (8+1)*4", got)
	}
}

func TestSingleImplementsScheme(t *testing.T) {
	var _ wear.Scheme = &Single{Region: MustNew(4, 1, 0)}
	s, _ := NewSingle(4, 1)
	if s.Name() != "start-gap" || s.LogicalLines() != 4 || s.PhysicalLines() != 5 {
		t.Fatal("scheme metadata")
	}
	if err := schemetest.CheckBijection(s); err != nil {
		t.Fatal(err)
	}
}
