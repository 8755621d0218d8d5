package rbsg

import (
	"testing"

	"securityrbsg/internal/schemetest"
)

func cfg() Config {
	return Config{Lines: 256, Regions: 8, Interval: 4, Seed: 1}
}

func TestValidation(t *testing.T) {
	bad := []Config{
		{Lines: 100, Regions: 4, Interval: 1}, // not a power of two
		{Lines: 256, Regions: 7, Interval: 1}, // regions don't divide
		{Lines: 256, Regions: 8, Interval: 0}, // zero interval
		{Lines: 0, Regions: 1, Interval: 1},   // empty
	}
	for i, c := range bad {
		if _, err := New(c); err == nil {
			t.Errorf("case %d: expected error for %+v", i, c)
		}
	}
}

// MustNew must surface the validation error as a panic, not hand back a
// half-built scheme.
func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew did not panic on an invalid config")
		}
	}()
	MustNew(Config{Lines: 100, Regions: 4, Interval: 1})
}

func TestDefaults(t *testing.T) {
	s := MustNew(cfg())
	if s.Config().Stages != 3 {
		t.Fatalf("default stages = %d, want 3 (the RBSG paper)", s.Config().Stages)
	}
	if s.Name() != "rbsg" {
		t.Fatal("name")
	}
	if s.LogicalLines() != 256 || s.PhysicalLines() != 8*(32+1) {
		t.Fatalf("space sizes %d/%d", s.LogicalLines(), s.PhysicalLines())
	}
	if s.LinesPerRegion() != 32 {
		t.Fatal("lines per region")
	}
}

func TestBijection(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		c := cfg()
		c.Seed = seed
		if err := schemetest.CheckBijection(MustNew(c)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMatrixRandomizer(t *testing.T) {
	c := cfg()
	c.UseMatrix = true
	s := MustNew(c)
	if err := schemetest.CheckBijection(s); err != nil {
		t.Fatal(err)
	}
	if _, err := schemetest.Exercise(s, 5000, 100, 2); err != nil {
		t.Fatal(err)
	}
}

func TestOddWidthUsesWalker(t *testing.T) {
	c := Config{Lines: 512, Regions: 8, Interval: 2, Seed: 3} // 9 bits
	s := MustNew(c)
	if err := schemetest.CheckBijection(s); err != nil {
		t.Fatal(err)
	}
	if _, err := schemetest.Exercise(s, 4000, 100, 4); err != nil {
		t.Fatal(err)
	}
}

func TestDataIntegrity(t *testing.T) {
	if _, err := schemetest.Exercise(MustNew(cfg()), 20000, 50, 5); err != nil {
		t.Fatal(err)
	}
}

func TestDataIntegrityUnderHammer(t *testing.T) {
	if _, err := schemetest.ExerciseHammer(MustNew(cfg()), 123, 20000, 50); err != nil {
		t.Fatal(err)
	}
}

// TestRandomizerIsStatic is the property the RTA exploits: the LA→IA
// mapping never changes, so physical adjacency of logical lines is fixed
// for the device's lifetime.
func TestRandomizerIsStatic(t *testing.T) {
	s := MustNew(cfg())
	before := make([]uint64, 256)
	for la := range before {
		before[la] = s.Intermediate(uint64(la))
	}
	if _, err := schemetest.Exercise(s, 50000, 0, 6); err != nil {
		t.Fatal(err)
	}
	for la := range before {
		if got := s.Intermediate(uint64(la)); got != before[la] {
			t.Fatalf("intermediate address of LA %d changed %d→%d", la, before[la], got)
		}
	}
}

// TestRegionIsolation: writes to one region never trigger movements in
// another (the property that lets the RTA maintain an exact shadow).
func TestRegionIsolation(t *testing.T) {
	s := MustNew(cfg())
	m := schemetest.NewTokenMover(s)
	// Find two LAs in different regions.
	la0 := uint64(0)
	r0 := s.Intermediate(la0) / s.LinesPerRegion()
	var la1 uint64
	for la1 = 1; ; la1++ {
		if s.Intermediate(la1)/s.LinesPerRegion() != r0 {
			break
		}
	}
	g1 := s.Region(int(s.Intermediate(la1) / s.LinesPerRegion())).Movements()
	for i := 0; i < 1000; i++ {
		s.NoteWrite(la0, m)
	}
	if got := s.Region(int(s.Intermediate(la1) / s.LinesPerRegion())).Movements(); got != g1 {
		t.Fatalf("foreign region moved %d times", got-g1)
	}
	if s.Region(int(r0)).Movements() != 1000/4 {
		t.Fatalf("own region moved %d times, want 250", s.Region(int(r0)).Movements())
	}
}

// TestSweepHitsEveryRegionEqually: a full logical sweep lands exactly
// N/R writes in every region (the bijection property the RTA's shadow
// counting relies on).
func TestSweepHitsEveryRegionEqually(t *testing.T) {
	s := MustNew(cfg())
	counts := make(map[uint64]int)
	for la := uint64(0); la < s.LogicalLines(); la++ {
		counts[s.Intermediate(la)/s.LinesPerRegion()]++
	}
	for r, c := range counts {
		if c != 32 {
			t.Fatalf("region %d received %d sweep writes, want 32", r, c)
		}
	}
}

func TestLineVulnerabilityFactor(t *testing.T) {
	s := MustNew(cfg())
	if got := s.LineVulnerabilityFactor(); got != 33*4 {
		t.Fatalf("LVF = %d, want (32+1)*4", got)
	}
}

func TestRandomizerAccessor(t *testing.T) {
	s := MustNew(cfg())
	r := s.Randomizer()
	if r.Domain() != 256 {
		t.Fatal("randomizer domain")
	}
	for x := uint64(0); x < 256; x++ {
		if r.Decrypt(r.Encrypt(x)) != x {
			t.Fatal("randomizer not invertible")
		}
	}
}
