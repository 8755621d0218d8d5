package core

import (
	"testing"

	"securityrbsg/internal/pcm"
	"securityrbsg/internal/schemetest"
)

// The adjustable security level: SetStages requests are deferred to the
// next remap-round boundary (the key redraw), never applied mid-round,
// and the transition must keep the cached and direct evaluation modes
// bit-identical — the controller in internal/seclevel leans on all three
// properties.

func TestSetStagesValidation(t *testing.T) {
	s := small(t, 20)
	if err := s.SetStages(0); err == nil {
		t.Fatal("SetStages(0) should fail")
	}
	if err := s.SetStages(-3); err == nil {
		t.Fatal("SetStages(-3) should fail")
	}
	if s.PendingStages() != 0 {
		t.Fatal("rejected request left a pending change")
	}
}

func TestSetStagesDeferredToRoundBoundary(t *testing.T) {
	s := small(t, 21) // Stages: 4
	m := schemetest.NewTokenMover(s)

	// Drive into the middle of a remapping round.
	for !s.inRound || s.remapped < 10 {
		s.NoteWrite(0, m)
	}
	atRequest := s.Rounds()
	if err := s.SetStages(6); err != nil {
		t.Fatal(err)
	}
	if s.Stages() != 4 {
		t.Fatalf("Stages() = %d immediately after request, want old level 4", s.Stages())
	}
	if s.PendingStages() != 6 {
		t.Fatalf("PendingStages() = %d, want 6", s.PendingStages())
	}

	// The level must hold at 4 for the whole remainder of this round.
	for s.StageChanges() == 0 {
		if s.Stages() != 4 {
			t.Fatalf("stage change applied mid-round (remapped %d/%d)", s.remapped, s.cfg.Lines)
		}
		s.NoteWrite(0, m)
	}
	if s.Stages() != 6 || s.PendingStages() != 0 {
		t.Fatalf("after boundary: Stages() = %d, PendingStages() = %d", s.Stages(), s.PendingStages())
	}
	// The request rode out the round in progress and applied when the
	// next one started: exactly one completed round in between.
	if s.Rounds() != atRequest+1 {
		t.Fatalf("change applied with %d rounds completed, want %d", s.Rounds(), atRequest+1)
	}
	if s.Config().Stages != 6 {
		t.Fatal("Config() does not reflect the live stage count")
	}

	// Data integrity survives the transition and the rounds after it.
	if err := schemetest.Verify(s, m); err != nil {
		t.Fatal(err)
	}
	start := s.Rounds()
	for s.Rounds() < start+2 {
		s.NoteWrite(1, m)
		if err := schemetest.CheckBijection(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := schemetest.Verify(s, m); err != nil {
		t.Fatal(err)
	}
}

func TestSetStagesLastRequestWins(t *testing.T) {
	s := small(t, 22)
	m := schemetest.NewTokenMover(s)
	if err := s.SetStages(6); err != nil {
		t.Fatal(err)
	}
	if err := s.SetStages(2); err != nil {
		t.Fatal(err)
	}
	if s.PendingStages() != 2 {
		t.Fatalf("PendingStages() = %d, want the later request 2", s.PendingStages())
	}
	for s.StageChanges() == 0 {
		s.NoteWrite(0, m)
	}
	if s.Stages() != 2 {
		t.Fatalf("Stages() = %d, want 2 (last request wins)", s.Stages())
	}
	if s.StageChanges() != 1 {
		t.Fatalf("StageChanges() = %d, want a single transition", s.StageChanges())
	}
}

func TestSetStagesSameLevelIsNotATransition(t *testing.T) {
	s := small(t, 23) // Stages: 4
	m := schemetest.NewTokenMover(s)
	if err := s.SetStages(4); err != nil {
		t.Fatal(err)
	}
	start := s.Rounds()
	for s.Rounds() < start+1 {
		s.NoteWrite(0, m)
	}
	if s.PendingStages() != 0 {
		t.Fatal("no-op request still pending after a boundary")
	}
	if s.StageChanges() != 0 {
		t.Fatalf("StageChanges() = %d for a same-level request, want 0", s.StageChanges())
	}
}

// TestSetStagesTwinBitIdentity is the determinism anchor for live level
// changes: a table-cached scheme and its direct-evaluation twin receive
// the same SetStages schedule and must agree on every translation after
// every write. This pins the RNG economy of a level change — redrawPerm
// resizes the spare network's key schedule and fills it by RekeyRandom
// with exactly one draw per stage, the same sequence a fresh
// construction draws, in both modes.
func TestSetStagesTwinBitIdentity(t *testing.T) {
	cases := []struct {
		name           string
		lines, regions uint64
	}{
		{"even-width", 256, 8},
		{"odd-width", 128, 1}, // cycle-walking under the tables
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b, ca, cb := newTwinPair(t, tc.lines, tc.regions, MigrationSwap)
			levels := []int{3, 9, 1, 7}
			next := 0
			for step := 0; a.Rounds() < 6 || next < len(levels); step++ {
				// Issue the next request once the previous transition
				// landed, so every level in the schedule gets its round.
				if next < len(levels) && a.StageChanges() == uint64(next) {
					if err := a.SetStages(levels[next]); err != nil {
						t.Fatal(err)
					}
					if err := b.SetStages(levels[next]); err != nil {
						t.Fatal(err)
					}
					next++
				}
				la := uint64(step*7) % tc.lines
				if ca.Write(la, pcm.Mixed) != cb.Write(la, pcm.Mixed) {
					t.Fatalf("step %d: write latency diverged", step)
				}
				compareAll(t, step, a, b)
				if a.Stages() != b.Stages() || a.StageChanges() != b.StageChanges() {
					t.Fatalf("step %d: level state diverged: %d/%d vs %d/%d",
						step, a.Stages(), a.StageChanges(), b.Stages(), b.StageChanges())
				}
			}
			if a.StageChanges() != uint64(len(levels)) {
				t.Fatalf("only %d transitions exercised", a.StageChanges())
			}
			if err := schemetest.CheckBijection(a); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSetStagesRaisesAndLowersAcrossRounds walks one scheme through an
// escalate-then-relax schedule and re-checks the core data invariant at
// every movement — the shape the adaptive controller produces in
// production.
func TestSetStagesRaisesAndLowersAcrossRounds(t *testing.T) {
	s := small(t, 24)
	m := schemetest.NewTokenMover(s)
	schedule := []int{6, 8, 5, 2, 4}
	for _, lvl := range schedule {
		if err := s.SetStages(lvl); err != nil {
			t.Fatal(err)
		}
		changes := s.StageChanges()
		for s.StageChanges() == changes {
			s.NoteWrite(uint64(s.Moves())%s.LogicalLines(), m)
		}
		if s.Stages() != lvl {
			t.Fatalf("Stages() = %d, want %d", s.Stages(), lvl)
		}
		if err := schemetest.Verify(s, m); err != nil {
			t.Fatalf("after transition to %d stages: %v", lvl, err)
		}
	}
	if s.StageChanges() != uint64(len(schedule)) {
		t.Fatalf("StageChanges() = %d, want %d", s.StageChanges(), len(schedule))
	}
}
