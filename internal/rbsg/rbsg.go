// Package rbsg implements Region-Based Start-Gap (Qureshi et al.,
// MICRO'09) — the first of the two prior schemes the paper attacks.
//
// RBSG translates the logical address to an intermediate address through a
// *static* randomizer (a Feistel network or a random invertible binary
// matrix, fixed once at boot), divides the intermediate space into R
// equal regions, and wear-levels each region independently with Start-Gap.
// The static randomizer destroys the spatial locality of ordinary write
// traffic, but — as Section III-B of the paper shows — it cannot hide the
// *relative* physical adjacency of logical lines, which the Remapping
// Timing Attack recovers one address bit at a time.
package rbsg

import (
	"fmt"
	"math/bits"

	"securityrbsg/internal/feistel"
	"securityrbsg/internal/startgap"
	"securityrbsg/internal/stats"
	"securityrbsg/internal/wear"
)

// Config describes an RBSG instance.
type Config struct {
	// Lines is the logical address-space size N; it must be a power of two
	// (the randomizer permutes B = log2 N address bits).
	Lines uint64
	// Regions is the number of independent Start-Gap regions R; it must
	// divide Lines. The paper sweeps 32–128 with 32 recommended.
	Regions uint64
	// Interval is the per-region remapping interval ψ (writes to a region
	// between gap movements). The paper sweeps 16–100 with 100 recommended.
	Interval uint64
	// Stages is the number of stages in the static Feistel randomizer
	// (ignored when UseMatrix is set). The RBSG paper uses 3.
	Stages int
	// UseMatrix selects the random-invertible-binary-matrix randomizer
	// instead of the Feistel network.
	UseMatrix bool
	// Seed seeds the randomizer key generation.
	Seed uint64
}

// Scheme is an RBSG wear-leveling instance implementing wear.Scheme.
type Scheme struct {
	cfg        Config
	randomizer feistel.Permutation
	regions    []*startgap.Region
	perRegion  uint64 // lines per region n = N/R, a power of two
	// Its shift and mask split an intermediate address into its region,
	// ia>>regionShift, and its offset there, ia&regionMask.
	regionShift uint
	regionMask  uint64
}

// New builds an RBSG scheme from cfg.
func New(cfg Config) (*Scheme, error) {
	if cfg.Lines == 0 || cfg.Lines&(cfg.Lines-1) != 0 {
		return nil, fmt.Errorf("rbsg: lines must be a power of two, got %d", cfg.Lines)
	}
	if cfg.Regions == 0 || cfg.Lines%cfg.Regions != 0 {
		return nil, fmt.Errorf("rbsg: regions %d must divide lines %d", cfg.Regions, cfg.Lines)
	}
	if cfg.Interval == 0 {
		return nil, fmt.Errorf("rbsg: interval must be at least 1")
	}
	if cfg.Stages <= 0 {
		cfg.Stages = 3
	}
	width := uint(bits.TrailingZeros64(cfg.Lines))
	rng := stats.NewRNG(cfg.Seed)
	var randomizer feistel.Permutation
	var err error
	if cfg.UseMatrix {
		randomizer, err = feistel.NewMatrix(width, rng)
	} else if width%2 == 0 {
		randomizer, err = feistel.Random(width, cfg.Stages, rng)
	} else {
		// Odd address width: run a (width+1)-wide network under a
		// cycle-walking restriction to [0, N).
		var inner *feistel.Network
		inner, err = feistel.Random(width+1, cfg.Stages, rng)
		if err == nil {
			randomizer, err = feistel.NewWalker(inner, cfg.Lines)
		}
	}
	if err != nil {
		return nil, err
	}
	// The static randomizer never rekeys, so for table-sized domains a
	// one-time materialization turns every per-access evaluation —
	// Feistel stages or a GF(2) matrix-vector product — into one slice
	// index (see feistel.MaxTableBits; paper-scale banks evaluate
	// directly).
	randomizer = feistel.Materialize(randomizer)
	per := cfg.Lines / cfg.Regions // a power of two: it divides Lines
	s := &Scheme{
		cfg: cfg, randomizer: randomizer,
		perRegion: per, regionShift: uint(bits.TrailingZeros64(per)), regionMask: per - 1,
	}
	s.regions = make([]*startgap.Region, cfg.Regions)
	for i := range s.regions {
		base := uint64(i) * (s.perRegion + 1)
		r, err := startgap.New(s.perRegion, cfg.Interval, base)
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

// Name identifies the scheme.
func (s *Scheme) Name() string { return "rbsg" }

// Config returns the construction configuration.
func (s *Scheme) Config() Config { return s.cfg }

// LogicalLines returns N.
func (s *Scheme) LogicalLines() uint64 { return s.cfg.Lines }

// PhysicalLines returns R × (N/R + 1): one spare GapLine per region.
func (s *Scheme) PhysicalLines() uint64 {
	return s.cfg.Regions * (s.perRegion + 1)
}

// LinesPerRegion returns n = N/R.
func (s *Scheme) LinesPerRegion() uint64 { return s.perRegion }

// Randomizer exposes the static LA→IA permutation (tests verify the
// attack never needs it; the lifetime models do).
func (s *Scheme) Randomizer() feistel.Permutation { return s.randomizer }

// Region returns region i, for white-box tests.
func (s *Scheme) Region(i int) *startgap.Region { return s.regions[i] }

// Intermediate returns the intermediate address of la (after the static
// randomizer, before Start-Gap).
func (s *Scheme) Intermediate(la uint64) uint64 {
	return s.randomizer.Encrypt(la)
}

// Translate maps a logical address to its current physical line.
func (s *Scheme) Translate(la uint64) uint64 {
	ia := s.randomizer.Encrypt(la)
	return s.regions[ia>>s.regionShift].Translate(ia & s.regionMask)
}

// NoteWrite books the write against the region owning la's intermediate
// address and performs that region's gap movement when due.
func (s *Scheme) NoteWrite(la uint64, m wear.Mover) uint64 { return s.Advance(la, 1, m) }

// Epoch implements wear.FastForwarder: of the next k writes to la,
// exactly the k-th can trigger a gap movement — the one in la's (static)
// region whose interval elapses. Movements in other regions cannot be
// triggered by writes to la, so k is exact, not a bound.
func (s *Scheme) Epoch(la uint64) (pa, k uint64) {
	ia := s.randomizer.Encrypt(la)
	return s.regions[ia>>s.regionShift].Epoch(ia & s.regionMask)
}

// Advance implements wear.FastForwarder: book k writes to la against its
// region, running the gap movement the k-th may complete.
func (s *Scheme) Advance(la, k uint64, m wear.Mover) uint64 {
	ia := s.randomizer.Encrypt(la)
	return s.regions[ia>>s.regionShift].Advance(k, m)
}

// LineVulnerabilityFactor returns the LVF — the maximum number of writes a
// pinned logical address can land on one physical line before Start-Gap
// moves it: one full region round, (n+1) × ψ writes.
func (s *Scheme) LineVulnerabilityFactor() uint64 {
	return (s.perRegion + 1) * s.cfg.Interval
}
