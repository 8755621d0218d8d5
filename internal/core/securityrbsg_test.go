package core

import (
	"testing"

	"securityrbsg/internal/pcm"
	"securityrbsg/internal/schemetest"
	"securityrbsg/internal/wear"
)

func small(t *testing.T, seed uint64) *Scheme {
	t.Helper()
	return MustNew(Config{
		Lines: 256, Regions: 8, InnerInterval: 3,
		OuterInterval: 5, Stages: 4, Seed: seed,
	})
}

func TestValidation(t *testing.T) {
	bad := []Config{
		{Lines: 100, Regions: 4, InnerInterval: 1, OuterInterval: 1, Stages: 3},
		{Lines: 256, Regions: 7, InnerInterval: 1, OuterInterval: 1, Stages: 3},
		{Lines: 256, Regions: 8, InnerInterval: 0, OuterInterval: 1, Stages: 3},
		{Lines: 256, Regions: 8, InnerInterval: 1, OuterInterval: 0, Stages: 3},
		{Lines: 256, Regions: 8, InnerInterval: 1, OuterInterval: 1, Stages: 0},
	}
	for i, c := range bad {
		if _, err := New(c); err == nil {
			t.Errorf("case %d should fail: %+v", i, c)
		}
	}
}

func TestMetadata(t *testing.T) {
	s := small(t, 1)
	if s.Name() != "security-rbsg" {
		t.Fatal("name")
	}
	if s.LogicalLines() != 256 {
		t.Fatal("logical lines")
	}
	// 8 regions × (32+1); the default swap migration needs no outer spare.
	if s.PhysicalLines() != 8*33 {
		t.Fatalf("physical lines = %d", s.PhysicalLines())
	}
	if s.LinesPerRegion() != 32 {
		t.Fatal("lines per region")
	}
}

func TestInitialBijection(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		if err := schemetest.CheckBijection(small(t, seed)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDataIntegrityAcrossRounds is the decisive test for the multi-cycle
// remapping walk: drive enough traffic for several complete DFN rounds
// (where the paper's Fig 9 as written would corrupt off-cycle lines) and
// verify after every remapping movement that every logical address still
// resolves to the line holding its data.
func TestDataIntegrityAcrossRounds(t *testing.T) {
	s := small(t, 2)
	// One outer round ≈ (N + cycles) × ψo ≈ 261×5 writes; run ~8 rounds.
	writes := 8 * 270 * 5
	if _, err := schemetest.Exercise(s, writes, 1, 3); err != nil {
		t.Fatal(err)
	}
	if s.Rounds() < 6 {
		t.Fatalf("only %d rounds completed — the test exercised too little", s.Rounds())
	}
}

func TestDataIntegrityUnderHammer(t *testing.T) {
	s := small(t, 4)
	if _, err := schemetest.ExerciseHammer(s, 77, 8*270*5, 1); err != nil {
		t.Fatal(err)
	}
}

func TestBijectionAfterEveryMove(t *testing.T) {
	s := small(t, 5)
	m := schemetest.NewTokenMover(s)
	for i := 0; i < 3000; i++ {
		s.NoteWrite(uint64(i)%256, m)
		if i%7 == 0 {
			if err := schemetest.CheckBijection(s); err != nil {
				t.Fatalf("after write %d: %v", i+1, err)
			}
		}
	}
}

// TestDynamicMapping is the defense property: unlike RBSG's static
// randomizer, the LA→IA mapping changes every remapping round.
func TestDynamicMapping(t *testing.T) {
	s := small(t, 6)
	before := make([]uint64, 256)
	for la := range before {
		before[la] = s.Intermediate(uint64(la))
	}
	m := schemetest.NewTokenMover(s)
	rounds := s.Rounds()
	for s.Rounds() < rounds+2 { // run two full rounds
		s.NoteWrite(0, m)
	}
	changed := 0
	for la := range before {
		if s.Intermediate(uint64(la)) != before[la] {
			changed++
		}
	}
	if changed < 200 {
		t.Fatalf("only %d/256 intermediate addresses changed after re-keying", changed)
	}
	if err := schemetest.Verify(s, m); err != nil {
		t.Fatal(err)
	}
}

// TestAdjacencyRerandomized: the relation the RTA recovers against RBSG —
// "which LA is physically adjacent to Li" — does not survive a DFN round.
func TestAdjacencyRerandomized(t *testing.T) {
	s := small(t, 7)
	adjacent := func() map[uint64]uint64 {
		inv := make(map[uint64]uint64, 256)
		for la := uint64(0); la < 256; la++ {
			inv[s.Intermediate(la)] = la
		}
		adj := make(map[uint64]uint64, 256)
		for la := uint64(0); la < 256; la++ {
			ia := s.Intermediate(la)
			if prev, ok := inv[ia-1]; ok && ia%32 != 0 {
				adj[la] = prev
			}
		}
		return adj
	}
	before := adjacent()
	m := schemetest.NewTokenMover(s)
	rounds := s.Rounds()
	for s.Rounds() < rounds+2 {
		s.NoteWrite(1, m)
	}
	after := adjacent()
	stable := 0
	for la, p := range before {
		if after[la] == p {
			stable++
		}
	}
	if stable > 30 {
		t.Fatalf("%d/~240 adjacency pairs survived re-keying — RTA would still work", stable)
	}
}

func TestRoundsAndMoves(t *testing.T) {
	s := small(t, 8) // default MigrationSwap: N − C swaps per round
	m := schemetest.NewTokenMover(s)
	for s.Rounds() < 1 {
		s.NoteWrite(0, m)
	}
	// N − C swaps plus the final free-close event.
	if s.Moves()+s.Cycles() != 257 {
		t.Fatalf("swap walk: %d moves + %d cycles, want N+1=257", s.Moves(), s.Cycles())
	}
	if s.WritesPerRound() != (256+1)*5 {
		t.Fatalf("WritesPerRound = %d", s.WritesPerRound())
	}

	mv := MustNew(Config{
		Lines: 256, Regions: 8, InnerInterval: 3,
		OuterInterval: 5, Stages: 4, Migration: MigrationMove, Seed: 8,
	})
	m2 := schemetest.NewTokenMover(mv)
	for mv.Rounds() < 1 {
		mv.NoteWrite(0, m2)
	}
	// The paper's walk costs N moves plus one extra per cycle.
	if mv.Moves() != 256+mv.Cycles() {
		t.Fatalf("move walk: %d moves with %d cycles, want N + cycles", mv.Moves(), mv.Cycles())
	}
}

// TestMigrationMoveIntegrity verifies the paper-faithful spare-line walk
// keeps the mapping/data invariant too.
func TestMigrationMoveIntegrity(t *testing.T) {
	s := MustNew(Config{
		Lines: 256, Regions: 8, InnerInterval: 3,
		OuterInterval: 5, Stages: 4, Migration: MigrationMove, Seed: 12,
	})
	if s.PhysicalLines() != 8*33+1 {
		t.Fatalf("move mode physical lines = %d, want one spare extra", s.PhysicalLines())
	}
	if _, err := schemetest.Exercise(s, 8*270*5, 1, 13); err != nil {
		t.Fatal(err)
	}
	if s.Rounds() < 6 {
		t.Fatalf("only %d rounds", s.Rounds())
	}
}

// TestCubingFeistelCycleConstant quantifies the pathology that motivates
// the swap migration: the key-change permutation of the paper's cubing
// Feistel decomposes into vastly more cycles than a random permutation
// (~ln N ≈ 5.5 for N=256), so the paper's spare line would absorb one
// write per cycle per round.
func TestCubingFeistelCycleConstant(t *testing.T) {
	s := small(t, 14)
	m := schemetest.NewTokenMover(s)
	for s.Rounds() < 10 {
		s.NoteWrite(0, m)
	}
	perRound := float64(s.Cycles()) / float64(s.Rounds())
	if perRound < 15 {
		t.Fatalf("cycles per round = %.1f — pathology gone? revisit the swap-walk rationale", perRound)
	}
	t.Logf("cycles per round: %.1f (random permutation would give ≈5.5)", perRound)
}

// TestSpareHotspotUnderMigrationMove demonstrates the hotspot on a real
// bank: the spare line's wear dwarfs the average line's.
func TestSpareHotspotUnderMigrationMove(t *testing.T) {
	s := MustNew(Config{
		Lines: 256, Regions: 8, InnerInterval: 3,
		OuterInterval: 5, Stages: 4, Migration: MigrationMove, Seed: 15,
	})
	c := wear.MustNewController(pcm.Config{
		Endurance: pcm.MaxEndurance, Timing: pcm.DefaultTiming,
	}, s)
	for s.Rounds() < 10 {
		c.Write(0, pcm.Mixed)
	}
	sparePA := s.PhysicalLines() - 1
	spare := c.Bank().Wear(sparePA)
	var sum uint64
	for pa := uint64(0); pa < sparePA; pa++ {
		sum += c.Bank().Wear(pa)
	}
	avg := sum / sparePA
	if spare < 5*avg {
		t.Fatalf("spare wear %d vs average %d — expected a pronounced hotspot", spare, avg)
	}
	t.Logf("spare line wear %d vs average line wear %d (%.0fx)", spare, avg, float64(spare)/float64(avg))
}

func TestOddWidthLines(t *testing.T) {
	s := MustNew(Config{
		Lines: 512, Regions: 8, InnerInterval: 2,
		OuterInterval: 3, Stages: 3, Seed: 9,
	})
	if err := schemetest.CheckBijection(s); err != nil {
		t.Fatal(err)
	}
	if _, err := schemetest.Exercise(s, 6*520*3, 11, 10); err != nil {
		t.Fatal(err)
	}
}

func TestTranslatePanicsOutOfRange(t *testing.T) {
	s := small(t, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Translate(256)
}

// TestInnerRegionsTickOnlyOnOwnWrites mirrors the RBSG region-isolation
// property at the inner level.
func TestInnerRegionsTickOnlyOnOwnWrites(t *testing.T) {
	s := small(t, 11)
	m := schemetest.NewTokenMover(s)
	la := uint64(9)
	// Hammer within less than one outer interval so the outer level never
	// moves and the IA stays fixed.
	region := int(s.Intermediate(la) / s.LinesPerRegion())
	var others uint64
	for i := 0; i < 8; i++ {
		if i != region {
			others += s.Region(i).Movements()
		}
	}
	for i := 0; i < 4; i++ { // 4 < ψo=5
		s.NoteWrite(la, m)
	}
	var after uint64
	for i := 0; i < 8; i++ {
		if i != region {
			after += s.Region(i).Movements()
		}
	}
	if after != others {
		t.Fatal("foreign inner regions moved")
	}
	if s.Region(region).Movements() != 1 { // 4 writes at ψi=3 → 1 movement
		t.Fatalf("own region moved %d times, want 1", s.Region(region).Movements())
	}
}

func BenchmarkTranslate(b *testing.B) {
	s := MustNew(Config{
		Lines: 1 << 16, Regions: 64, InnerInterval: 64,
		OuterInterval: 128, Stages: 7, Seed: 1,
	})
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += s.Translate(uint64(i) & (1<<16 - 1))
	}
	_ = sink
}

func BenchmarkNoteWrite(b *testing.B) {
	s := MustNew(Config{
		Lines: 1 << 16, Regions: 64, InnerInterval: 64,
		OuterInterval: 128, Stages: 7, Seed: 1,
	})
	m := schemetest.NewTokenMover(s)
	for i := 0; i < b.N; i++ {
		s.NoteWrite(uint64(i)&(1<<16-1), m)
	}
}
