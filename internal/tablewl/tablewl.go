// Package tablewl implements the table-based wear-leveling family the
// paper's Section II-A surveys (Zhou et al. ISCA'09, Dong et al. DAC'11,
// Yun et al. DATE'12): an indirection table maps every logical line to a
// physical line, per-line write counters identify hot and cold lines, and
// a periodic leveling action swaps the hottest logical line onto the
// least-worn physical line.
//
// It exists here as the foil the paper sets up: table-based schemes
// level ordinary traffic well, but they are "deterministic in nature so
// that the location of the mapped line can be guessed easily, and thus
// can be attacked easily" — an adversary who knows the algorithm can
// replay the controller's decisions from its own write stream and aim
// every write at whichever logical line currently sits on a chosen
// physical victim (the Address Inference Attack, attack.AIA). The tests
// and benches quantify both halves.
//
// The leveling action scans the counters linearly; hardware would keep
// heaps or sampled counters, but the simulation-side complexity is not
// the object of study.
package tablewl

import (
	"fmt"

	"securityrbsg/internal/wear"
)

// Config describes a table-based wear leveler.
type Config struct {
	// Lines is the logical (and physical) space size.
	Lines uint64
	// Interval is the number of demand writes between leveling actions.
	Interval uint64
	// HotThreshold is the minimum hotness (writes since the line's last
	// move) a line must reach to be migrated; below it the action is a
	// no-op. Defaults to Interval/2.
	HotThreshold uint64
}

// Scheme is a hot-cold swapping table wear leveler implementing
// wear.Scheme.
type Scheme struct {
	cfg  Config
	toPA []uint32 // logical → physical
	toLA []uint32 // physical → logical
	wear []uint32 // device writes per physical line (controller's view)
	hot  []uint32 // writes per logical line since it last moved

	writeCount uint64
	swaps      uint64
	actions    uint64
}

// New builds a table wear leveler with the identity initial mapping.
func New(cfg Config) (*Scheme, error) {
	if cfg.Lines == 0 {
		return nil, fmt.Errorf("tablewl: need at least one line")
	}
	if cfg.Lines > 1<<31 {
		return nil, fmt.Errorf("tablewl: %d lines overflow the 32-bit table", cfg.Lines)
	}
	if cfg.Interval == 0 {
		return nil, fmt.Errorf("tablewl: interval must be at least 1")
	}
	if cfg.HotThreshold == 0 {
		cfg.HotThreshold = cfg.Interval / 2
	}
	s := &Scheme{
		cfg:  cfg,
		toPA: make([]uint32, cfg.Lines),
		toLA: make([]uint32, cfg.Lines),
		wear: make([]uint32, cfg.Lines),
		hot:  make([]uint32, cfg.Lines),
	}
	for i := range s.toPA {
		s.toPA[i] = uint32(i)
		s.toLA[i] = uint32(i)
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

// Name identifies the scheme.
func (s *Scheme) Name() string { return "table-wl" }

// LogicalLines returns N.
func (s *Scheme) LogicalLines() uint64 { return s.cfg.Lines }

// PhysicalLines returns N — table swaps need no spare line.
func (s *Scheme) PhysicalLines() uint64 { return s.cfg.Lines }

// Swaps returns the number of hot-cold migrations performed.
func (s *Scheme) Swaps() uint64 { return s.swaps }

// Translate maps a logical line through the indirection table.
func (s *Scheme) Translate(la uint64) uint64 {
	if la >= s.cfg.Lines {
		panic(fmt.Errorf("tablewl: logical address %d out of space of %d lines", la, s.cfg.Lines))
	}
	return uint64(s.toPA[la])
}

// NoteWrite books the write in the counters and performs the leveling
// action when the interval elapses.
func (s *Scheme) NoteWrite(la uint64, m wear.Mover) uint64 {
	s.hot[la]++
	s.wear[s.toPA[la]]++
	s.writeCount++
	if s.writeCount < s.cfg.Interval {
		return 0
	}
	s.writeCount = 0
	return s.level(m)
}

// level is one leveling action: migrate the hottest logical line onto the
// least-worn physical line (swapping with that line's current occupant),
// if it is hot enough to bother.
func (s *Scheme) level(m wear.Mover) uint64 {
	s.actions++
	hotLA, hotVal := 0, uint32(0)
	for la, h := range s.hot {
		if h > hotVal {
			hotVal = h
			hotLA = la
		}
	}
	if uint64(hotVal) < s.cfg.HotThreshold {
		return 0
	}
	coldPA, coldVal := 0, ^uint32(0)
	for pa, w := range s.wear {
		if w < coldVal {
			coldVal = w
			coldPA = pa
		}
	}
	hotPA := s.toPA[hotLA]
	if uint64(hotPA) == uint64(coldPA) {
		s.hot[hotLA] = 0
		return 0
	}
	// Swap the two lines' data and table entries; the swap itself wears
	// both physical lines.
	ns := m.Swap(uint64(hotPA), uint64(coldPA))
	otherLA := s.toLA[coldPA]
	s.toPA[hotLA], s.toPA[otherLA] = uint32(coldPA), hotPA
	s.toLA[coldPA], s.toLA[hotPA] = uint32(hotLA), otherLA
	s.wear[hotPA]++
	s.wear[coldPA]++
	s.hot[hotLA] = 0
	s.hot[otherLA] = 0
	s.swaps++
	return ns
}
