package core

import (
	"fmt"
	"testing"

	"securityrbsg/internal/feistel"
	"securityrbsg/internal/pcm"
	"securityrbsg/internal/wear"
)

// The table cache is a pure evaluation-strategy change: a Scheme built
// with NoTableCache (direct Feistel evaluation every access) and its
// cached twin must agree on every translation at every point of every
// remapping round. These tests drive both side by side through live
// write traffic — including mid-migration states, where a stale table
// would surface as kc/kp disagreeing with the direct evaluation.

func twinConfigs(lines, regions uint64, migration Migration) (cached, direct Config) {
	cached = Config{
		Lines: lines, Regions: regions,
		InnerInterval: 3, OuterInterval: 5,
		Stages: 7, Migration: migration, Seed: 99,
	}
	direct = cached
	direct.NoTableCache = true
	return cached, direct
}

func newTwinPair(t *testing.T, lines, regions uint64, migration Migration) (a, b *Scheme, ca, cb *wear.Controller) {
	t.Helper()
	cfgA, cfgB := twinConfigs(lines, regions, migration)
	a, b = MustNew(cfgA), MustNew(cfgB)
	bank := pcm.Config{Endurance: pcm.MaxEndurance, Timing: pcm.DefaultTiming}
	return a, b, wear.MustNewController(bank, a), wear.MustNewController(bank, b)
}

func compareAll(t *testing.T, step int, a, b *Scheme) {
	t.Helper()
	for la := uint64(0); la < a.LogicalLines(); la++ {
		if got, want := a.Translate(la), b.Translate(la); got != want {
			t.Fatalf("step %d: Translate(%d) = %d cached, %d direct", step, la, got, want)
		}
		if got, want := a.Intermediate(la), b.Intermediate(la); got != want {
			t.Fatalf("step %d: Intermediate(%d) = %d cached, %d direct", step, la, got, want)
		}
	}
}

// TestTableCacheMatchesDirect drives several full remapping rounds of
// write traffic and checks the cached and direct twins agree on the
// whole address space after every single write.
func TestTableCacheMatchesDirect(t *testing.T) {
	for _, mig := range []Migration{MigrationSwap, MigrationMove} {
		a, b, ca, cb := newTwinPair(t, 256, 8, mig)
		if a.Rounds() != 0 {
			t.Fatal("fresh scheme already remapped")
		}
		step := 0
		for a.Rounds() < 3 {
			la := uint64(step*7) % a.LogicalLines()
			if ca.Write(la, pcm.Mixed) != cb.Write(la, pcm.Mixed) {
				t.Fatalf("step %d: write latency diverged", step)
			}
			compareAll(t, step, a, b)
			if a.Rounds() != b.Rounds() || a.Moves() != b.Moves() {
				t.Fatalf("step %d: round/move counters diverged", step)
			}
			step++
		}
	}
}

// TestTableCacheOddWidth repeats the twin check on a non-even address
// width (2^7 lines per region ⇒ cycle-walking under the tables).
func TestTableCacheOddWidth(t *testing.T) {
	a, b, ca, cb := newTwinPair(t, 128, 1, MigrationSwap)
	for step := 0; a.Rounds() < 2; step++ {
		la := uint64(step*5) % a.LogicalLines()
		ca.Write(la, pcm.Mixed)
		cb.Write(la, pcm.Mixed)
		compareAll(t, step, a, b)
	}
}

// TestRedrawNeverServesStaleTable pins the two-network (and, in table
// mode, two-table) rotation: across a round boundary kc changes while kp
// must keep answering, in both directions, with the *previous* round's
// mapping. A redraw that rekeyed the network kp still uses, or refilled
// a table kc or kp still references, would silently change it.
func TestRedrawNeverServesStaleTable(t *testing.T) {
	cached, direct := twinConfigs(256, 8, MigrationSwap)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"table", cached}, {"direct", direct}} {
		t.Run(tc.name, func(t *testing.T) {
			s := MustNew(tc.cfg)
			c := wear.MustNewController(pcm.Config{
				Endurance: pcm.MaxEndurance, Timing: pcm.DefaultTiming,
			}, s)

			// snapshot lists p's forward mapping, then its inverse.
			snapshot := func(p feistel.Permutation) []uint64 {
				n := p.Domain()
				m := make([]uint64, 2*n)
				for x := range n {
					m[x], m[n+x] = p.Encrypt(x), p.Decrypt(x)
				}
				return m
			}

			var la uint64
			write := func() { c.Write(la, pcm.Mixed); la = (la + 3) % s.LogicalLines() }

			for round := uint64(0); round < 4; round++ {
				// Walk up to the round boundary and capture kc's mapping.
				start := s.Rounds()
				kcBefore, _ := s.CurrentKeys()
				before := snapshot(kcBefore)
				for s.Rounds() == start {
					write()
				}
				// The round turned: the old kc is now kp and must be unchanged.
				kc, kp := s.CurrentKeys()
				if kp != kcBefore {
					t.Fatalf("round %d: kp is not the previous kc", round)
				}
				after := snapshot(kp)
				for x := range before {
					if before[x] != after[x] {
						t.Fatalf("round %d: kp mapping entry %d changed %d -> %d after redraw (stale rekey or refill)",
							round, x, before[x], after[x])
					}
				}
				if kc == kp {
					t.Fatalf("round %d: kc and kp share a permutation after redraw", round)
				}
				// And the new kc must differ somewhere (7-stage redraw of a
				// 256-line space matching identically is ~impossible).
				fresh := snapshot(kc)
				same := true
				for x := range fresh {
					if fresh[x] != before[x] {
						same = false
						break
					}
				}
				if same {
					t.Fatalf("round %d: kc identical to previous round after redraw", round)
				}
			}
		})
	}
}

// TestIntermediateMemoMatchesRecomputation pins Intermediate's memo of
// its last answer against a memo-free evaluation. After every write the
// written line and a few others must translate as translateIA(
// intermediate(la)) does, through several round starts, a level change,
// both migrations and both evaluation modes. Every other write targets
// the line the next outer movement remaps, so a memo that survived a
// movement would answer that line with its old IA.
func TestIntermediateMemoMatchesRecomputation(t *testing.T) {
	for _, mig := range []Migration{MigrationSwap, MigrationMove} {
		for _, noTable := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/noTable=%v", mig, noTable), func(t *testing.T) {
				s := MustNew(Config{
					Lines: 256, Regions: 8, InnerInterval: 3, OuterInterval: 1,
					Stages: 7, Migration: mig, Seed: 41, NoTableCache: noTable,
				})
				c := wear.MustNewController(pcm.Config{
					Endurance: pcm.MaxEndurance, Timing: pcm.DefaultTiming,
				}, s)
				check := func(step int, la uint64) {
					t.Helper()
					if got, want := s.Translate(la), s.translateIA(s.intermediate(la)); got != want {
						t.Fatalf("step %d: Translate(%d) = %d, recomputed %d", step, la, got, want)
					}
				}
				for step := 0; s.Rounds() < 4; step++ {
					if step == 300 {
						if err := s.SetStages(3); err != nil {
							t.Fatal(err)
						}
					}
					la := uint64(step*7) % s.LogicalLines()
					if next, ok := nextRemapped(s); ok && step%2 == 1 {
						la = next
					}
					c.Write(la, pcm.Content(step%3))
					check(step, la)
					for _, o := range []uint64{la ^ 1, la * 5 % s.LogicalLines(), s.LogicalLines() - 1} {
						check(step, o)
					}
				}
				if s.StageChanges() != 1 {
					t.Fatalf("StageChanges() = %d, want the one level change", s.StageChanges())
				}
			})
		}
	}
}

// nextRemapped returns the line whose IA the scheme's next outer
// movement changes, when a cycle is in progress.
func nextRemapped(s *Scheme) (uint64, bool) {
	if s.cfg.Migration == MigrationSwap {
		return s.dispLA, s.dispLA != noBufLA
	}
	if s.gap == s.cfg.Lines {
		return 0, false
	}
	return s.kc.Decrypt(s.gap), true
}

// TestRoundStartsZeroAlloc pins that a round start allocates nothing in
// either evaluation mode: the redraw rekeys the spare network in place
// and, in table mode, refills the spare table. Each run's 300 writes at
// OuterInterval 1 span at least one round boundary, at an even and an
// odd (cycle-walked) width.
func TestRoundStartsZeroAlloc(t *testing.T) {
	for _, lines := range []uint64{1 << 8, 1 << 7} {
		for _, noTable := range []bool{false, true} {
			t.Run(fmt.Sprintf("lines=%d/noTable=%v", lines, noTable), func(t *testing.T) {
				s := MustNew(Config{
					Lines: lines, Regions: 4, InnerInterval: 3, OuterInterval: 1,
					Stages: 7, Seed: 5, NoTableCache: noTable,
				})
				c := wear.MustNewController(pcm.Config{
					Endurance: pcm.MaxEndurance, Timing: pcm.DefaultTiming,
				}, s)
				var la uint64
				rounds := s.Rounds()
				allocs := testing.AllocsPerRun(10, func() {
					for range 300 {
						c.Write(la, pcm.Mixed)
						la = (la + 7) % lines
					}
				})
				if s.Rounds()-rounds < 11 {
					t.Fatalf("only %d rounds completed over 11 runs", s.Rounds()-rounds)
				}
				if allocs != 0 {
					t.Fatalf("%.1f allocations per 300 writes, want 0", allocs)
				}
			})
		}
	}
}

// TestTableCacheUsedWhenSmall asserts the construction policy: scaled
// geometries get *feistel.Table keys, NoTableCache and paper-scale
// domains do not.
func TestTableCacheUsedWhenSmall(t *testing.T) {
	cached, direct := twinConfigs(1<<10, 4, MigrationSwap)
	kc, _ := MustNew(cached).CurrentKeys()
	if _, ok := kc.(*feistel.Table); !ok {
		t.Fatalf("small domain not table-cached: %T", kc)
	}
	kc, _ = MustNew(direct).CurrentKeys()
	if _, ok := kc.(*feistel.Table); ok {
		t.Fatal("NoTableCache still produced a table")
	}
}
