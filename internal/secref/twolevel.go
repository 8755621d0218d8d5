package secref

import (
	"fmt"

	"securityrbsg/internal/stats"
	"securityrbsg/internal/wear"
)

// TwoLevelConfig describes a hierarchical Security Refresh instance.
type TwoLevelConfig struct {
	// Lines is the logical space size N (power of two).
	Lines uint64
	// Regions is the number of inner sub-regions R (power of two dividing
	// Lines). The paper's suggested configuration is 512.
	Regions uint64
	// InnerInterval is the per-sub-region refresh interval (suggested 64).
	InnerInterval uint64
	// OuterInterval is the outer refresh interval counted over all writes
	// to the bank (suggested 128).
	OuterInterval uint64
	// Seed seeds key generation.
	Seed uint64
}

func (c TwoLevelConfig) validate() error {
	if c.Lines == 0 || c.Lines&(c.Lines-1) != 0 {
		return fmt.Errorf("secref: lines must be a power of two, got %d", c.Lines)
	}
	if c.Regions == 0 || c.Regions&(c.Regions-1) != 0 || c.Lines%c.Regions != 0 {
		return fmt.Errorf("secref: regions must be a power of two dividing lines, got %d", c.Regions)
	}
	if c.InnerInterval == 0 || c.OuterInterval == 0 {
		return fmt.Errorf("secref: intervals must be at least 1")
	}
	return nil
}

// TwoLevel is the hierarchical Security Refresh scheme: an outer SR domain
// over the whole logical space produces intermediate addresses, which are
// split across R inner SR domains producing physical addresses. The levels
// are transparent and independent of each other; the outer level's swaps
// move data between whatever physical lines the inner level currently
// assigns.
type TwoLevel struct {
	cfg       TwoLevelConfig
	outer     *OneLevel
	inner     []*OneLevel
	perRegion uint64
}

// NewTwoLevel builds a two-level Security Refresh scheme.
func NewTwoLevel(cfg TwoLevelConfig) (*TwoLevel, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := stats.NewRNG(cfg.Seed)
	outer, err := NewOneLevel(cfg.Lines, cfg.OuterInterval, 0, rng)
	if err != nil {
		return nil, err
	}
	s := &TwoLevel{cfg: cfg, outer: outer, perRegion: cfg.Lines / cfg.Regions}
	s.inner = make([]*OneLevel, cfg.Regions)
	for i := range s.inner {
		base := uint64(i) * s.perRegion
		in, err := NewOneLevel(s.perRegion, cfg.InnerInterval, base, rng)
		if err != nil {
			return nil, err
		}
		s.inner[i] = in
	}
	return s, nil
}

// MustNewTwoLevel is NewTwoLevel that panics on error.
func MustNewTwoLevel(cfg TwoLevelConfig) *TwoLevel {
	s, err := NewTwoLevel(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Name identifies the scheme.
func (s *TwoLevel) Name() string { return "two-level-sr" }

// Config returns the construction configuration.
func (s *TwoLevel) Config() TwoLevelConfig { return s.cfg }

// LogicalLines returns N.
func (s *TwoLevel) LogicalLines() uint64 { return s.cfg.Lines }

// PhysicalLines returns N — neither SR level needs spare lines.
func (s *TwoLevel) PhysicalLines() uint64 { return s.cfg.Lines }

// LinesPerRegion returns N/R.
func (s *TwoLevel) LinesPerRegion() uint64 { return s.perRegion }

// Outer exposes the outer-level domain for white-box tests.
func (s *TwoLevel) Outer() *OneLevel { return s.outer }

// Inner exposes inner domain i for white-box tests.
func (s *TwoLevel) Inner(i int) *OneLevel { return s.inner[i] }

// Intermediate returns la's intermediate address under the outer level.
func (s *TwoLevel) Intermediate(la uint64) uint64 {
	return s.outer.Translate(la) // outer base is 0, so PA of outer == IA
}

// translateIA maps an intermediate address through its inner domain.
func (s *TwoLevel) translateIA(ia uint64) uint64 {
	region := ia / s.perRegion
	return s.inner[region].Translate(ia % s.perRegion)
}

// Translate maps a logical address to its current physical line.
func (s *TwoLevel) Translate(la uint64) uint64 {
	return s.translateIA(s.Intermediate(la))
}

// NoteWrite books the demand write against both levels: the inner domain
// owning la's intermediate address steps every InnerInterval writes to
// that domain, and the outer domain steps every OuterInterval writes to
// the bank. Outer swaps move data between the physical lines the inner
// level currently assigns to the two intermediate addresses.
func (s *TwoLevel) NoteWrite(la uint64, m wear.Mover) uint64 { return s.Advance(la, 1, m) }

// Epoch implements wear.FastForwarder: of the next k writes to la,
// exactly the k-th is the first that can trigger a refresh step —
// whichever of la's inner domain's interval and the outer interval
// elapses first. Writes to la tick both counters, and the levels'
// translations are frozen between steps, so k is exact.
func (s *TwoLevel) Epoch(la uint64) (pa, k uint64) {
	ia := s.Intermediate(la)
	pa, inner := s.inner[ia/s.perRegion].Epoch(ia % s.perRegion)
	return pa, min(inner, s.WritesToNextOuterStep())
}

// Advance implements wear.FastForwarder: book k writes to la against
// both levels (k ≤ Epoch(la)'s k), running the inner step and then the
// outer step when the k-th write completes their intervals.
func (s *TwoLevel) Advance(la, k uint64, m wear.Mover) uint64 {
	ia := s.Intermediate(la)
	ns := s.inner[ia/s.perRegion].Advance(ia%s.perRegion, k, m)
	if s.outer.tick(k) {
		ns += s.outerStep(m)
	}
	return ns
}

// WritesToNextOuterStep returns how many bank writes remain until the
// outer level's next refresh step (every bank write ticks the outer
// domain, so this is address-independent). The outer translation — and
// with it Intermediate(la) for every la — is frozen for that many minus
// one writes; attackers batching hammer stints use it as the bound past
// which an address may migrate between sub-regions.
func (s *TwoLevel) WritesToNextOuterStep() uint64 { return s.outer.interval - s.outer.writeCount }

// outerStep performs one outer refresh step, routing the data movement
// through the inner translation so the swap touches the correct physical
// lines.
func (s *TwoLevel) outerStep(m wear.Mover) uint64 {
	o := s.outer
	if o.crp == o.n {
		o.keyp = o.keyc
		o.keyc = o.rng.Uint64() & o.mask
		o.crp = 0
	}
	la := o.crp
	pair := o.Pair(la)
	var ns uint64
	if pair > la {
		ns = m.Swap(s.translateIA(la^o.keyp), s.translateIA(la^o.keyc))
		o.swaps++
	}
	o.crp++
	o.steps++
	if o.crp == o.n {
		o.rounds++
	}
	return ns
}

// MultiWay is the Multi-Way SR layout from Section III-E: the logical
// space is split into R *consecutive* sub-regions by address sequence,
// each wear-leveled by an independent one-level Security Refresh. The
// paper notes this family inherits the sub-region tracking vulnerability.
type MultiWay struct {
	lines     uint64
	perRegion uint64
	inner     []*OneLevel
}

// NewMultiWay builds a Multi-Way SR over lines split into regions
// sub-regions, each refreshing every interval writes to it.
func NewMultiWay(lines, regions, interval, seed uint64) (*MultiWay, error) {
	if lines == 0 || lines&(lines-1) != 0 {
		return nil, fmt.Errorf("secref: lines must be a power of two, got %d", lines)
	}
	if regions == 0 || regions&(regions-1) != 0 || lines%regions != 0 {
		return nil, fmt.Errorf("secref: regions must be a power of two dividing lines, got %d", regions)
	}
	rng := stats.NewRNG(seed)
	s := &MultiWay{lines: lines, perRegion: lines / regions}
	s.inner = make([]*OneLevel, regions)
	for i := range s.inner {
		in, err := NewOneLevel(s.perRegion, interval, uint64(i)*s.perRegion, rng)
		if err != nil {
			return nil, err
		}
		s.inner[i] = in
	}
	return s, nil
}

// Name identifies the scheme.
func (s *MultiWay) Name() string { return "multiway-sr" }

// LogicalLines returns N.
func (s *MultiWay) LogicalLines() uint64 { return s.lines }

// PhysicalLines returns N.
func (s *MultiWay) PhysicalLines() uint64 { return s.lines }

// Translate maps a logical address to its physical line via the SR domain
// of its consecutive sub-region.
func (s *MultiWay) Translate(la uint64) uint64 {
	return s.inner[la/s.perRegion].Translate(la % s.perRegion)
}

// NoteWrite books the write against la's sub-region domain.
func (s *MultiWay) NoteWrite(la uint64, m wear.Mover) uint64 { return s.Advance(la, 1, m) }

// Epoch implements wear.FastForwarder: writes to la tick only its own
// sub-region's domain, and the other domains never step without writes
// of their own, so the epoch is that domain's.
func (s *MultiWay) Epoch(la uint64) (pa, k uint64) {
	return s.inner[la/s.perRegion].Epoch(la % s.perRegion)
}

// Advance implements wear.FastForwarder: book k writes against la's
// sub-region domain.
func (s *MultiWay) Advance(la, k uint64, m wear.Mover) uint64 {
	return s.inner[la/s.perRegion].Advance(la%s.perRegion, k, m)
}
