package core

import (
	"testing"
	"testing/quick"

	"securityrbsg/internal/schemetest"
)

// TestRandomConfigsStayConsistent fuzzes the configuration space: any
// valid (lines, regions, intervals, stages, migration, seed) combination
// must keep the mapping/data invariant through several remapping rounds.
func TestRandomConfigsStayConsistent(t *testing.T) {
	f := func(linesExp, regionExp uint8, inner, outer uint8, stages uint8, mig bool, seed uint64) bool {
		le := 6 + uint(linesExp)%5 // 64..1024 lines
		re := uint(regionExp) % 4  // 1..8 regions
		if re > le-2 {
			re = le - 2
		}
		cfg := Config{
			Lines:         1 << le,
			Regions:       1 << re,
			InnerInterval: uint64(inner)%7 + 1,
			OuterInterval: uint64(outer)%9 + 1,
			Stages:        int(stages)%9 + 1,
			Seed:          seed,
		}
		if mig {
			cfg.Migration = MigrationMove
		}
		s, err := New(cfg)
		if err != nil {
			t.Logf("config rejected: %+v: %v", cfg, err)
			return false
		}
		// Enough writes for ≥2 outer rounds.
		writes := int(2 * (cfg.Lines + 40) * cfg.OuterInterval)
		if writes > 400000 {
			writes = 400000
		}
		if _, err := schemetest.ExerciseHammer(s, seed%cfg.Lines, writes, writes/16+1); err != nil {
			t.Logf("config %+v: %v", cfg, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestIntermediateAlwaysBijective: sampled mid-round states keep the
// LA→IA map injective (quick samples random write counts).
func TestIntermediateAlwaysBijective(t *testing.T) {
	s := small(t, 21)
	m := schemetest.NewTokenMover(s)
	f := func(burst uint16) bool {
		for i := 0; i < int(burst)%512; i++ {
			s.NoteWrite(uint64(i)%256, m)
		}
		return schemetest.CheckBijection(s) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestKeysActuallyRotate: each completed round installs a fresh
// permutation (sampled by comparing a few translations across rounds).
func TestKeysActuallyRotate(t *testing.T) {
	s := small(t, 22)
	m := schemetest.NewTokenMover(s)
	snapshots := make([][8]uint64, 0, 5)
	for len(snapshots) < 5 {
		r := s.Rounds()
		for s.Rounds() == r {
			s.NoteWrite(1, m)
		}
		var snap [8]uint64
		for i := range snap {
			snap[i] = s.Intermediate(uint64(i * 31))
		}
		snapshots = append(snapshots, snap)
	}
	for i := 1; i < len(snapshots); i++ {
		if snapshots[i] == snapshots[i-1] {
			t.Fatalf("rounds %d and %d share an identical sampled mapping", i-1, i)
		}
	}
}
