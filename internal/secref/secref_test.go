package secref

import (
	"testing"

	"securityrbsg/internal/schemetest"
	"securityrbsg/internal/stats"
)

func TestOneLevelValidation(t *testing.T) {
	rng := stats.NewRNG(1)
	if _, err := NewOneLevel(100, 1, 0, rng); err == nil {
		t.Error("non-power-of-two must fail")
	}
	if _, err := NewOneLevel(64, 0, 0, rng); err == nil {
		t.Error("zero interval must fail")
	}
	if s, err := NewOneLevel(64, 4, 0, nil); err != nil || s == nil {
		t.Error("nil rng should default")
	}
}

// TestPairwiseProperty verifies the algebra the scheme rests on:
// LA XOR keyc = pair XOR keyp — the new location of LA is the old
// location of its pair.
func TestPairwiseProperty(t *testing.T) {
	s := MustNewOneLevel(256, 1, 0, stats.NewRNG(2))
	m := schemetest.NewTokenMover(s)
	for i := 0; i < 100; i++ {
		s.Step(m)
	}
	kc, kp := s.Keys()
	for la := uint64(0); la < 256; la++ {
		pair := s.Pair(la)
		if la^kc != pair^kp || pair^kc != la^kp {
			t.Fatalf("pairwise identity violated for LA %d", la)
		}
	}
}

// TestPaperFig5 replays Fig 5's example: 4 lines, keys keyp=10b, keyc=11b.
func TestPaperFig5(t *testing.T) {
	s := MustNewOneLevel(4, 1, 0, stats.NewRNG(0))
	// Force the paper's key sequence.
	s.keyc, s.keyp = 0b10, 0b10
	s.crp = 4 // round complete; next step rotates keys
	m := schemetest.NewTokenMover(s)

	// Before the new round every LA sits at la XOR 10b.
	for la := uint64(0); la < 4; la++ {
		if got := s.Translate(la); got != la^0b10 {
			t.Fatalf("initial state: LA%d at %d, want %d (Fig 5a)", la, got, la^0b10)
		}
	}
	// First remapping of the new round with keyc = 11b: LA0 swaps with its
	// pair LA0^01 = LA1... the paper picks key 11: force it by stepping
	// with a stacked rng. Instead drive Step and then overwrite the drawn
	// key with the paper's and redo — simpler: set the state by hand.
	s.keyp = 0b10
	s.keyc = 0b11
	s.crp = 0
	// Rebuild the token map for the forced state.
	m = schemetest.NewTokenMover(s)
	s.crp = 0

	// Step 1: CRP=0, pair(0) = 0 ^ 11 ^ 10 = 1 > 0 ⇒ swap lines 0^10=2 and
	// 0^11=3 (Fig 5b: contents C and D swap).
	s.Step(m)
	if s.CRP() != 1 {
		t.Fatalf("CRP = %d after first step", s.CRP())
	}
	if got := s.Translate(0); got != 3 {
		t.Fatalf("LA0 now at %d, want 3 = 00 XOR 11 (Fig 5b)", got)
	}
	if err := schemetest.Verify(s, m); err != nil {
		t.Fatal(err)
	}
	// Step 2: CRP=1, pair(1) = 0 < 1 ⇒ already remapped, no swap (Fig 5c).
	swaps := s.Swaps()
	s.Step(m)
	if s.Swaps() != swaps {
		t.Fatal("LA1 should not swap again (Fig 5c)")
	}
	// Finish the round; all lines must be at la XOR keyc (Fig 5d).
	s.Step(m)
	s.Step(m)
	for la := uint64(0); la < 4; la++ {
		if got := s.Translate(la); got != la^0b11 {
			t.Fatalf("final state: LA%d at %d, want %d (Fig 5d)", la, got, la^0b11)
		}
	}
	if err := schemetest.Verify(s, m); err != nil {
		t.Fatal(err)
	}
}

func TestOneLevelDataIntegrity(t *testing.T) {
	s := MustNewOneLevel(128, 3, 0, stats.NewRNG(3))
	if _, err := schemetest.Exercise(s, 128*3*10, 17, 4); err != nil {
		t.Fatal(err)
	}
}

func TestOneLevelHammerIntegrity(t *testing.T) {
	s := MustNewOneLevel(64, 2, 0, stats.NewRNG(4))
	if _, err := schemetest.ExerciseHammer(s, 13, 64*2*20, 5); err != nil {
		t.Fatal(err)
	}
}

func TestOneLevelBijectionAlways(t *testing.T) {
	s := MustNewOneLevel(64, 1, 0, stats.NewRNG(5))
	m := schemetest.NewTokenMover(s)
	for i := 0; i < 500; i++ {
		s.Step(m)
		if err := schemetest.CheckBijection(asScheme{s}); err != nil {
			t.Fatalf("after step %d: %v", i+1, err)
		}
	}
}

// asScheme adapts OneLevel (whose NoteWrite ignores la) for
// schemetest.CheckBijection.
type asScheme struct{ *OneLevel }

func TestKeysRotateEachRound(t *testing.T) {
	s := MustNewOneLevel(32, 1, 0, stats.NewRNG(6))
	m := schemetest.NewTokenMover(s)
	seen := map[uint64]bool{}
	for r := 0; r < 8; r++ {
		for i := 0; i < 32; i++ {
			s.Step(m)
		}
		kc, kp := s.Keys()
		seen[kc] = true
		if s.Rounds() == 0 {
			t.Fatal("rounds not counted")
		}
		_ = kp
	}
	if len(seen) < 4 {
		t.Fatalf("keys barely rotate: %d distinct over 8 rounds", len(seen))
	}
}

func TestTwoLevelValidation(t *testing.T) {
	bad := []TwoLevelConfig{
		{Lines: 100, Regions: 4, InnerInterval: 1, OuterInterval: 1},
		{Lines: 256, Regions: 3, InnerInterval: 1, OuterInterval: 1},
		{Lines: 256, Regions: 4, InnerInterval: 0, OuterInterval: 1},
		{Lines: 256, Regions: 4, InnerInterval: 1, OuterInterval: 0},
	}
	for i, c := range bad {
		if _, err := NewTwoLevel(c); err == nil {
			t.Errorf("case %d should fail: %+v", i, c)
		}
	}
}

func twoLevel(t *testing.T) *TwoLevel {
	t.Helper()
	return MustNewTwoLevel(TwoLevelConfig{
		Lines: 256, Regions: 8, InnerInterval: 3, OuterInterval: 7, Seed: 9,
	})
}

func TestTwoLevelBijection(t *testing.T) {
	if err := schemetest.CheckBijection(twoLevel(t)); err != nil {
		t.Fatal(err)
	}
}

func TestTwoLevelDataIntegrity(t *testing.T) {
	if _, err := schemetest.Exercise(twoLevel(t), 40000, 41, 10); err != nil {
		t.Fatal(err)
	}
}

func TestTwoLevelHammerIntegrity(t *testing.T) {
	if _, err := schemetest.ExerciseHammer(twoLevel(t), 200, 40000, 43); err != nil {
		t.Fatal(err)
	}
}

// TestTwoLevelLevelsAreIndependent: inner domains tick only on writes
// routed into them, the outer domain ticks on every write.
func TestTwoLevelLevelsAreIndependent(t *testing.T) {
	s := twoLevel(t)
	m := schemetest.NewTokenMover(s)
	la := uint64(5)
	before := s.Outer().Steps()
	for i := 0; i < 700; i++ {
		s.NoteWrite(la, m)
	}
	outerSteps := s.Outer().Steps() - before
	if outerSteps != 100 {
		t.Fatalf("outer stepped %d times over 700 writes at ψo=7", outerSteps)
	}
	var innerSteps uint64
	for i := 0; i < 8; i++ {
		innerSteps += s.Inner(i).Steps()
	}
	// All 700 writes landed in the hammered line's (moving) sub-region:
	// ψi=3 ⇒ ≈233 inner steps across regions.
	if innerSteps < 200 || innerSteps > 240 {
		t.Fatalf("inner steps = %d, want ≈233", innerSteps)
	}
}

func TestMultiWay(t *testing.T) {
	s, err := NewMultiWay(256, 8, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := schemetest.CheckBijection(s); err != nil {
		t.Fatal(err)
	}
	if _, err := schemetest.Exercise(s, 20000, 37, 12); err != nil {
		t.Fatal(err)
	}
	// Consecutive layout: LA's sub-region is its high bits, always.
	for la := uint64(0); la < 256; la++ {
		pa := s.Translate(la)
		if pa/32 != la/32 {
			t.Fatalf("multiway moved LA %d out of its consecutive sub-region", la)
		}
	}
	if _, err := NewMultiWay(100, 4, 1, 0); err == nil {
		t.Error("non-power-of-two must fail")
	}
	if _, err := NewMultiWay(256, 3, 1, 0); err == nil {
		t.Error("bad region count must fail")
	}
}

func TestWritesPerRound(t *testing.T) {
	s := MustNewOneLevel(64, 4, 0, stats.NewRNG(13))
	if s.WritesPerRound() != 256 {
		t.Fatalf("writes per round = %d", s.WritesPerRound())
	}
}
