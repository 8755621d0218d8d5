// Package core implements Security Region-Based Start-Gap (Security RBSG),
// the wear-leveling scheme this paper contributes.
//
// Security RBSG is a two-level dynamic mapping:
//
//   - The outer level — Security-Level Adjustable Dynamic Mapping — maps
//     logical addresses (LA) to intermediate addresses (IA) through a
//     Dynamic Feistel Network (DFN): a multi-stage Feistel network whose
//     stage keys are re-drawn every remapping round. One spare line, a Gap
//     register, per-line isRemap bits and the two key arrays Kc (current)
//     and Kp (previous) let the mapping migrate incrementally, one line
//     move every OuterInterval writes (Figs 8–10 of the paper). Because
//     the keys change before a Remapping Timing Attack can finish
//     extracting them, the outer level is what provides security, and the
//     stage count S is the adjustable security level.
//
//   - The inner level splits the IA space into equal sub-regions and runs
//     the plain Start-Gap algorithm in each, which keeps ordinary write
//     traffic uniform at negligible cost.
//
// Two departures from the paper's Fig 9 pseudocode are documented here
// because they are load-bearing:
//
//  1. Multi-cycle rounds. The flowchart walks the cycle of the permutation
//     ENC_Kp ∘ DEC_Kc that contains slot 0 and declares the round complete
//     when that cycle closes. For random keys that permutation is not a
//     single cycle, so lines on other cycles would silently flip from Kp
//     to Kc translation without their data moving — a correctness bug.
//     This implementation walks *every* cycle in turn (one movement per
//     OuterInterval writes, as in the paper) and keeps translation exact
//     at all times; tests verify the invariant after every movement.
//
//  2. Spare-line wear. Worse, with the paper's own cubing round function
//     the key-change permutation has on the order of N/16 cycles, not the
//     ~ln N of a random permutation (the cube map mod 2^(B/2) is far from
//     a random function — e.g. its low output bit is linear in its input).
//     The paper's migration parks each cycle's head in the single spare
//     line, writing the spare once per cycle — tens of thousands of times
//     per round at 1 GB scale — so the spare line would exceed its own
//     endurance almost immediately. The default migration here therefore
//     relocates each cycle in place with swaps (L−1 swaps per length-L
//     cycle, like Security Refresh's pair swaps; remap wear lands evenly,
//     two writes per line per round) and needs no spare line at all. The
//     paper's spare-line walk remains available as MigrationMove for
//     fidelity experiments; the core tests quantify its hotspot.
package core

import (
	"fmt"
	"math/bits"

	"securityrbsg/internal/feistel"
	"securityrbsg/internal/startgap"
	"securityrbsg/internal/stats"
	"securityrbsg/internal/wear"
)

// Migration selects how the outer level relocates a remapping round's
// permutation cycles.
type Migration int

const (
	// MigrationSwap (the default) rotates each cycle in place with swaps:
	// no spare line, remap wear spread evenly. See the package comment.
	MigrationSwap Migration = iota
	// MigrationMove is the paper's Fig 8–9 walk: park the cycle head in
	// the spare line, pull each line into the gap, unpark at the end. It
	// concentrates one write per cycle on the spare line, which the
	// cubing Feistel's cycle structure turns into a wear hotspot.
	MigrationMove
)

// String names the migration strategy.
func (m Migration) String() string {
	if m == MigrationMove {
		return "move"
	}
	return "swap"
}

// Config describes a Security RBSG instance.
type Config struct {
	// Lines is the logical address-space size N (power of two).
	Lines uint64
	// Regions is the number of inner Start-Gap sub-regions (must divide
	// Lines). The paper evaluates 256–1024 with 512 suggested.
	Regions uint64
	// InnerInterval is the per-sub-region Start-Gap interval (suggested 64).
	InnerInterval uint64
	// OuterInterval is the DFN remapping interval counted over all bank
	// writes (suggested 128).
	OuterInterval uint64
	// Stages is the DFN stage count — the security level. The paper
	// recommends 7 (6 is the minimum that outruns RTA key detection at the
	// suggested configuration; 7 adds lifetime margin).
	Stages int
	// Migration selects the cycle-relocation strategy (default
	// MigrationSwap; see the package comment).
	Migration Migration
	// Seed seeds all key generation.
	Seed uint64
	// NoTableCache forces direct per-access Feistel evaluation even when
	// the address width is small enough to materialize the DFN into
	// per-round lookup tables. Translation is bit-identical either way
	// (the differential tests depend on it). Tables pay off when one
	// bank's permutation stays cache-resident, as in the exact tier.
	// memserver sets it: 64 banks' tables do not stay in cache, while a
	// 7-stage evaluation is ~8 ns of ALU work (BenchmarkFeistelMapDirect)
	// that touches no memory.
	NoTableCache bool
}

func (c Config) validate() error {
	if c.Lines == 0 || c.Lines&(c.Lines-1) != 0 {
		return fmt.Errorf("core: lines must be a power of two, got %d", c.Lines)
	}
	if c.Regions == 0 || c.Lines%c.Regions != 0 {
		return fmt.Errorf("core: regions %d must divide lines %d", c.Regions, c.Lines)
	}
	if c.InnerInterval == 0 || c.OuterInterval == 0 {
		return fmt.Errorf("core: intervals must be at least 1")
	}
	if c.Stages <= 0 {
		return fmt.Errorf("core: need at least one DFN stage, got %d", c.Stages)
	}
	return nil
}

// noBufLA marks bufLA, dispLA and memoLA empty. It is not a valid LA,
// so Intermediate checks the memo only after its range check.
const noBufLA = ^uint64(0)

// Scheme is a Security RBSG instance implementing wear.Scheme.
type Scheme struct {
	cfg       Config
	perRegion uint64 // inner lines per sub-region n' = N/R, a power of two
	// Its shift and mask split an intermediate address into its
	// sub-region, ia>>regionShift, and its offset there, ia&regionMask.
	regionShift uint
	regionMask  uint64
	sparePA     uint64 // physical address of the outer spare line

	kc, kp feistel.Permutation
	rng    *stats.RNG

	// The DFN rotates two key-holding networks, rekeyed in place at each
	// round start: the redraw rekeys only the one no live mapping
	// references, so a translation never sees the next round's keys.
	// perms[i] is nets[i], cycle-walked for odd widths. In table mode
	// (bits ≤ feistel.MaxTableBits and !NoTableCache) the redraw also
	// refills tables[i] from it, and kc and kp point at the tables;
	// otherwise tables stays nil and kc and kp evaluate perms directly.
	// cur indexes the network (and table) kc currently uses.
	nets   [2]*feistel.Network
	perms  [2]feistel.Permutation
	tables [2]*feistel.Table
	cur    int

	// The last Intermediate answer, so a write that translates, feeds a
	// monitor and advances computes its IA once. outerMove clears it:
	// it is the only place the LA→IA mapping changes.
	memoLA, memoIA uint64

	isRemap  []uint64 // bitset over logical addresses
	remapped uint64   // population count of isRemap
	inRound  bool     // a remapping round is in progress
	scan     uint64   // next LA to consider as a cycle start

	// MigrationMove state: gap is the empty IA slot (Lines when the spare
	// is empty) and bufLA the LA parked in the spare.
	gap   uint64
	bufLA uint64

	// MigrationSwap state: the current cycle's anchor slot and the LA
	// whose (displaced) data currently sits there.
	anchorSlot uint64
	dispLA     uint64

	regions []*startgap.Region

	writeCount uint64 // outer-interval write counter
	moves      uint64 // outer movements performed
	rounds     uint64 // completed outer rounds
	cycles     uint64 // permutation cycles walked (extra moves)

	// Adjustable security level: a requested stage count waits here until
	// the next remap-round boundary (0 = no change pending). See SetStages.
	pendingStages int
	stageChanges  uint64 // stage-count transitions applied
}

// New builds a Security RBSG scheme from cfg.
func New(cfg Config) (*Scheme, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	addrBits := uint(bits.TrailingZeros64(cfg.Lines)) // Lines is a power of two
	per := cfg.Lines / cfg.Regions                    // so is per, which divides it
	s := &Scheme{
		cfg:         cfg,
		perRegion:   per,
		regionShift: uint(bits.TrailingZeros64(per)),
		regionMask:  per - 1,
		sparePA:     cfg.Regions * (per + 1),
		rng:         stats.NewRNG(cfg.Seed),
		isRemap:     make([]uint64, (cfg.Lines+63)/64),
		bufLA:       noBufLA,
		dispLA:      noBufLA,
		memoLA:      noBufLA,
		gap:         cfg.Lines,
	}
	// Odd address widths run a one-bit-wider network under cycle walking.
	width := addrBits + addrBits%2
	for i := range s.nets {
		n, err := feistel.New(width, make([]uint64, cfg.Stages))
		if err != nil {
			return nil, err
		}
		s.nets[i], s.perms[i] = n, n
		if addrBits%2 != 0 {
			// Cannot fail: Lines = 2^addrBits < 2^width.
			s.perms[i] = feistel.MustNewWalker(n, cfg.Lines)
		}
	}
	s.nets[0].RekeyRandom(s.rng) // the draws a fresh construction makes
	s.kc = s.perms[0]
	if !cfg.NoTableCache && addrBits <= feistel.MaxTableBits {
		s.tables[0] = feistel.MustNewTable(s.perms[0])
		s.kc = s.tables[0]
	}
	s.kp = s.kc
	s.regions = make([]*startgap.Region, cfg.Regions)
	for i := range s.regions {
		base := uint64(i) * (s.perRegion + 1)
		r, err := startgap.New(s.perRegion, cfg.InnerInterval, base)
		if err != nil {
			return nil, err
		}
		s.regions[i] = r
	}
	return s, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config) *Scheme {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// redrawPerm draws the next round's DFN permutation into the spare
// network, the one neither kc nor kp uses (callers must have already
// rotated kp): it resizes the network to the current stage count and
// rekeys it in place, consuming exactly the RNG draws a fresh
// construction would, so both modes translate identically. In table
// mode it then refills the spare table from it.
func (s *Scheme) redrawPerm() feistel.Permutation {
	s.cur = 1 - s.cur
	n := s.nets[s.cur]
	if n.Stages() != s.cfg.Stages {
		n.MustSetStages(s.cfg.Stages)
	}
	n.RekeyRandom(s.rng)
	p := s.perms[s.cur]
	if s.tables[0] == nil {
		return p
	}
	t := s.tables[s.cur]
	if t == nil {
		t = feistel.MustNewTable(p)
		s.tables[s.cur] = t
	} else {
		t.MustFill(p)
	}
	return t
}

// Name identifies the scheme.
func (s *Scheme) Name() string { return "security-rbsg" }

// Config returns the construction configuration.
func (s *Scheme) Config() Config { return s.cfg }

// LogicalLines returns N.
func (s *Scheme) LogicalLines() uint64 { return s.cfg.Lines }

// PhysicalLines returns R × (N/R + 1) plus, under MigrationMove, the outer
// spare line.
func (s *Scheme) PhysicalLines() uint64 {
	p := s.cfg.Regions * (s.perRegion + 1)
	if s.cfg.Migration == MigrationMove {
		p++
	}
	return p
}

// LinesPerRegion returns the inner sub-region size N/R.
func (s *Scheme) LinesPerRegion() uint64 { return s.perRegion }

// Rounds returns the number of completed outer remapping rounds.
func (s *Scheme) Rounds() uint64 { return s.rounds }

// Moves returns the number of outer line movements performed.
func (s *Scheme) Moves() uint64 { return s.moves }

// Cycles returns the number of key-permutation cycles walked so far —
// the quantity that exposes the cubing Feistel's cycle pathology.
func (s *Scheme) Cycles() uint64 { return s.cycles }

// Stages returns the DFN stage count — the security level — currently
// in effect. It differs from a pending SetStages request until the next
// remap-round boundary applies it.
func (s *Scheme) Stages() int { return s.cfg.Stages }

// PendingStages returns the stage count requested via SetStages but not
// yet applied, or 0 when no change is pending.
func (s *Scheme) PendingStages() int { return s.pendingStages }

// StageChanges returns how many stage-count transitions have applied.
func (s *Scheme) StageChanges() uint64 { return s.stageChanges }

// SetStages requests a security-level change: the DFN uses n stages from
// the next remapping round on. The request is deferred to the round
// boundary — the key redraw in startRound — because that is the only
// instant at which no address translates through a half-retired
// permutation pair: Kp has just been rotated from the old Kc, the new Kc
// is drawn fresh, and every isRemap bit is clear. Applying mid-round
// would re-key the permutation that unremapped lines still translate
// through, silently corrupting the mapping. Repeated calls before the
// boundary overwrite each other; the last request wins. A request equal
// to the current level still clears at the boundary without counting as
// a transition.
func (s *Scheme) SetStages(n int) error {
	if n <= 0 {
		return fmt.Errorf("core: need at least one DFN stage, got %d", n)
	}
	s.pendingStages = n
	return nil
}

// Region returns inner sub-region i, for white-box tests.
func (s *Scheme) Region(i int) *startgap.Region { return s.regions[i] }

// CurrentKeys returns the current and previous DFN permutations, for
// white-box tests and the lifetime estimators. Attackers never see these.
func (s *Scheme) CurrentKeys() (kc, kp feistel.Permutation) { return s.kc, s.kp }

func (s *Scheme) remappedBit(la uint64) bool {
	return s.isRemap[la>>6]>>(la&63)&1 == 1
}

func (s *Scheme) setRemapped(la uint64) {
	s.isRemap[la>>6] |= 1 << (la & 63)
	s.remapped++
}

// Intermediate returns la's current intermediate address: ENC_Kc once
// remapped this round, ENC_Kp before, and the spare slot (== Lines) while
// its data is parked there mid-cycle. This is the Fig 10 translation,
// generalized to multi-cycle rounds. It keeps its last answer, so it
// writes the scheme; the single-writer contract covers that, since no
// caller shares a Scheme across goroutines.
func (s *Scheme) Intermediate(la uint64) uint64 {
	if la >= s.cfg.Lines {
		panic(fmt.Errorf("core: logical address %d out of space of %d lines", la, s.cfg.Lines))
	}
	if la == s.memoLA {
		return s.memoIA
	}
	ia := s.intermediate(la)
	s.memoLA, s.memoIA = la, ia
	return ia
}

// intermediate evaluates Intermediate without the memo.
func (s *Scheme) intermediate(la uint64) uint64 {
	if s.remappedBit(la) {
		return s.kc.Encrypt(la)
	}
	if la == s.bufLA {
		return s.cfg.Lines // parked in the spare (MigrationMove)
	}
	if la == s.dispLA {
		return s.anchorSlot // displaced to the anchor (MigrationSwap)
	}
	return s.kp.Encrypt(la)
}

// translateIA maps an intermediate address (or the spare slot) to its
// physical line via the inner Start-Gap regions.
func (s *Scheme) translateIA(ia uint64) uint64 {
	if ia == s.cfg.Lines {
		return s.sparePA
	}
	return s.regions[ia>>s.regionShift].Translate(ia & s.regionMask)
}

// Translate maps a logical address to its current physical line. It
// writes the scheme, as Intermediate does.
func (s *Scheme) Translate(la uint64) uint64 {
	return s.translateIA(s.Intermediate(la))
}

// NoteWrite books a demand write: the inner sub-region owning la's IA
// counts it toward its Start-Gap interval, and the outer DFN counts it
// toward its remapping interval.
func (s *Scheme) NoteWrite(la uint64, m wear.Mover) uint64 { return s.Advance(la, 1, m) }

// Epoch implements wear.FastForwarder: of the next k writes to la,
// exactly the k-th is the first that can trigger movements — whichever
// fires first of la's inner sub-region's Start-Gap interval and the
// outer DFN interval (which every bank write ticks). Both mappings are
// frozen until that write, so k is exact. A line parked in the outer
// spare (IA == Lines, MigrationMove mid-cycle) ticks only the outer
// counter, mirroring Advance.
func (s *Scheme) Epoch(la uint64) (pa, k uint64) {
	k = s.cfg.OuterInterval - s.writeCount
	ia := s.Intermediate(la)
	if ia == s.cfg.Lines {
		return s.sparePA, k
	}
	pa, inner := s.regions[ia>>s.regionShift].Epoch(ia & s.regionMask)
	return pa, min(k, inner)
}

// Advance implements wear.FastForwarder: book k writes to la against the
// inner sub-region and the outer counter (k ≤ Epoch(la)'s k), running
// the inner gap movement and then the outer DFN movement when the k-th
// write completes their intervals.
func (s *Scheme) Advance(la, k uint64, m wear.Mover) uint64 {
	if left := s.cfg.OuterInterval - s.writeCount; k > left {
		panic(fmt.Errorf("core: Advance(%d) would run past an outer movement (%d writes remain)", k, left))
	}
	var ns uint64
	if ia := s.Intermediate(la); ia != s.cfg.Lines { // writes to the parked line don't tick a region
		ns = s.regions[ia>>s.regionShift].Advance(k, m)
	}
	s.writeCount += k
	if s.writeCount == s.cfg.OuterInterval {
		s.writeCount = 0
		ns += s.outerMove(m)
	}
	return ns
}

// startRound rotates the keys and clears the remap state, applying any
// pending security-level change just before the new Kc is drawn.
func (s *Scheme) startRound() {
	s.kp = s.kc
	if n := s.pendingStages; n != 0 {
		s.pendingStages = 0
		if n != s.cfg.Stages {
			s.cfg.Stages = n
			s.stageChanges++
		}
	}
	s.kc = s.redrawPerm()
	for i := range s.isRemap {
		s.isRemap[i] = 0
	}
	s.remapped = 0
	s.scan = 0
	s.inRound = true
}

// outerMove performs one DFN remapping movement under the configured
// migration strategy. It clears Intermediate's memo first: round starts,
// level changes, swaps and spare walks all happen below it.
func (s *Scheme) outerMove(m wear.Mover) uint64 {
	s.memoLA = noBufLA
	if s.cfg.Migration == MigrationSwap {
		return s.outerMoveSwap(m)
	}
	return s.outerMoveSpare(m)
}

// outerMoveSwap advances the round by one in-place swap: the current
// cycle's displaced line's data moves from the anchor slot to its ENC_Kc
// target, displacing that slot's line to the anchor in turn. Fixed points
// and cycle closes cost nothing and immediately proceed to real work.
func (s *Scheme) outerMoveSwap(m wear.Mover) uint64 {
	s.moves++
	if !s.inRound {
		s.startRound()
	}
	for {
		if s.dispLA == noBufLA {
			// Open the next cycle at the smallest unremapped LA. The
			// "park" is virtual: the head's data already sits at its own
			// ENC_Kp slot, which becomes the anchor.
			for s.remappedBit(s.scan) {
				s.scan++
			}
			s.dispLA = s.scan
			s.anchorSlot = s.kp.Encrypt(s.dispLA)
			s.cycles++
		}
		target := s.kc.Encrypt(s.dispLA)
		if target == s.anchorSlot {
			// The displaced data already sits at its new-key slot: the
			// cycle closes (or was a fixed point) for free.
			s.setRemapped(s.dispLA)
			s.dispLA = noBufLA
			if s.remapped == s.cfg.Lines {
				s.inRound = false
				s.rounds++
				return 0
			}
			continue
		}
		ns := m.Swap(s.translateIA(s.anchorSlot), s.translateIA(target))
		next := s.kp.Decrypt(target) // whose data was just displaced to the anchor
		s.setRemapped(s.dispLA)
		s.dispLA = next
		return ns
	}
}

// outerMoveSpare is the paper's Fig 8–9 walk: either starts a new round
// (re-key, park the first cycle's head in the spare line) or advances the
// current cycle by pulling the gap slot's designated line into place.
func (s *Scheme) outerMoveSpare(m wear.Mover) uint64 {
	s.moves++
	if !s.inRound {
		s.startRound()
	}
	if s.gap == s.cfg.Lines {
		// No cycle in progress: park the next unremapped line's data in
		// the spare, opening a gap at its old slot.
		for s.remappedBit(s.scan) {
			s.scan++
		}
		la := s.scan
		src := s.kp.Encrypt(la)
		ns := m.Move(s.translateIA(src), s.sparePA)
		s.bufLA = la
		s.gap = src
		s.cycles++
		return ns
	}
	// Advance the cycle: the line destined for the gap slot under the new
	// keys moves in, opening a gap at its old slot — until the cycle
	// closes back on the parked line.
	loc := s.kc.Decrypt(s.gap)
	if loc == s.bufLA {
		ns := m.Move(s.sparePA, s.translateIA(s.gap))
		s.setRemapped(loc)
		s.bufLA = noBufLA
		s.gap = s.cfg.Lines
		if s.remapped == s.cfg.Lines {
			s.inRound = false
			s.rounds++
		}
		return ns
	}
	src := s.kp.Encrypt(loc)
	ns := m.Move(s.translateIA(src), s.translateIA(s.gap))
	s.setRemapped(loc)
	s.gap = src
	return ns
}

// MovesPerRound returns the expected outer movements in one remapping
// round: N regular moves plus one extra per permutation cycle (≈ ln N for
// a random permutation) — the paper's cost model with the multi-cycle
// correction.
func (s *Scheme) MovesPerRound() uint64 { return s.cfg.Lines + 1 }

// WritesPerRound returns the approximate demand writes consumed by one
// outer remapping round.
func (s *Scheme) WritesPerRound() uint64 {
	return s.MovesPerRound() * s.cfg.OuterInterval
}
