// Package plugins is the one table of the paper's scheme × attack
// matrix: every in-tree wear-leveling scheme, attack and lifetime model
// is one entry here, and this package's init registers them all into
// registry.Default. Import it for that side effect from any binary or
// test that composes cells by name:
//
//	import _ "securityrbsg/internal/plugins"
//
// Adding a scheme, attack or model means adding one entry. The
// implementation packages know nothing of the registry, so the serving
// daemons (memctld, memrouterd) link neither it nor the lifetime models.
package plugins

import (
	"securityrbsg/internal/core"
	"securityrbsg/internal/detector"
	"securityrbsg/internal/rbsg"
	"securityrbsg/internal/registry"
	"securityrbsg/internal/seclevel"
	"securityrbsg/internal/secref"
	"securityrbsg/internal/startgap"
	"securityrbsg/internal/stats"
	"securityrbsg/internal/wear"
)

// init registers the table. registry.Default's Register methods panic on
// an invalid or duplicate name and on capabilities that do not match the
// entry's functions, so a bad entry fails every binary at start-up.
func init() {
	for _, s := range schemes {
		registry.Default.RegisterScheme(s)
	}
	for _, a := range attacks {
		registry.Default.RegisterAttack(a)
	}
	for _, m := range models {
		registry.Default.RegisterModel(m.scheme, m.attack, m.fn)
	}
}

// schemes are the wear-leveling schemes the matrix plays.
var schemes = []registry.Scheme{
	{
		Name: "none",
		Doc:  "identity mapping, no wear leveling — the paper's baseline",
		// Never remaps, so there is no remapping-latency side channel for
		// timing attacks to read.
		Caps: registry.SchemeCaps{Exact: true, TimingOracle: false},
		New: func(cfg registry.Config) (wear.Scheme, error) {
			return wear.NewPassthrough(cfg.Lines), nil
		},
	},

	// Plain (single-region) Start-Gap — structurally RBSG with one region
	// and the identity randomizer, so the RBSG timing attack applies to it
	// directly. Default interval is the Start-Gap paper's ψ=100.
	{
		Name: "start-gap",
		Doc:  "plain Start-Gap over the whole bank, no randomization",
		Caps: registry.SchemeCaps{Exact: true, TimingOracle: true},
		Defaults: func(cfg registry.Config) registry.Config {
			if cfg.InnerInterval == 0 {
				cfg.InnerInterval = 100
			}
			cfg.Regions = 1 // structural: one region is what "start-gap" means
			return cfg
		},
		New: func(cfg registry.Config) (wear.Scheme, error) {
			return startgap.NewSingle(cfg.Lines, cfg.InnerInterval)
		},
	},

	// Plain Region-Based Start-Gap: the scheme the paper's RTA breaks,
	// kept as a tournament victim.
	{
		Name:     "rbsg",
		Doc:      "Region-Based Start-Gap: static randomizer + per-region Start-Gap",
		Caps:     registry.SchemeCaps{Exact: true, TimingOracle: true},
		Defaults: rbsgDefaults,
		New: func(cfg registry.Config) (wear.Scheme, error) {
			return rbsg.New(rbsg.Config{
				Lines: cfg.Lines, Regions: cfg.Regions,
				Interval: cfg.InnerInterval, Seed: cfg.Seed,
			})
		},
	},

	// RBSG wrapped in the online write-stream detector — the HPCA'11-style
	// countermeasure whose interaction with the RTA the paper analyzes. It
	// is the only scheme in the matrix that reports a defender-side
	// detection latency (registry.AlarmReporter).
	{
		Name:     "rbsg+detector",
		Doc:      "RBSG + online attack detector boosting alarmed regions' leveling rate",
		Caps:     registry.SchemeCaps{Exact: true, TimingOracle: true},
		Defaults: rbsgDefaults,
		New: func(cfg registry.Config) (wear.Scheme, error) {
			base, err := rbsg.New(rbsg.Config{
				Lines: cfg.Lines, Regions: cfg.Regions,
				Interval: cfg.InnerInterval, Seed: cfg.Seed,
			})
			if err != nil {
				return nil, err
			}
			return detector.NewAdaptiveRBSG(base, detector.Config{})
		},
	},

	// The Security Refresh family: the one-level and two-level schemes of
	// Seong et al. (the paper's main comparison points) and the Multi-Way
	// SR variant whose consecutive sub-regions the focused attack tracks.
	{
		Name: "security-refresh",
		Doc:  "one-level Security Refresh: single XOR-keyed swap domain",
		Caps: registry.SchemeCaps{Exact: true, TimingOracle: true},
		Defaults: func(cfg registry.Config) registry.Config {
			if cfg.InnerInterval == 0 {
				cfg.InnerInterval = 32
			}
			cfg.Regions = 1 // structural: one domain over the whole space
			return cfg
		},
		New: func(cfg registry.Config) (wear.Scheme, error) {
			return secref.NewOneLevel(cfg.Lines, cfg.InnerInterval, 0, stats.NewRNG(cfg.Seed))
		},
	},
	{
		Name: "two-level-sr",
		Doc:  "two-level Security Refresh: outer domain over inner sub-region domains",
		Caps: registry.SchemeCaps{Exact: true, TimingOracle: true},
		Defaults: func(cfg registry.Config) registry.Config {
			if cfg.Regions == 0 {
				cfg.Regions = defaultRegions(cfg.Lines)
			}
			if cfg.InnerInterval == 0 {
				cfg.InnerInterval = 64
			}
			if cfg.OuterInterval == 0 {
				cfg.OuterInterval = 128
			}
			return cfg
		},
		New: func(cfg registry.Config) (wear.Scheme, error) {
			return secref.NewTwoLevel(secref.TwoLevelConfig{
				Lines: cfg.Lines, Regions: cfg.Regions,
				InnerInterval: cfg.InnerInterval, OuterInterval: cfg.OuterInterval,
				Seed: cfg.Seed,
			})
		},
	},
	{
		Name: "multiway-sr",
		Doc:  "Multi-Way SR: independent one-level SR per consecutive sub-region",
		Caps: registry.SchemeCaps{Exact: true, TimingOracle: true},
		Defaults: func(cfg registry.Config) registry.Config {
			if cfg.Regions == 0 {
				cfg.Regions = defaultRegions(cfg.Lines)
			}
			if cfg.InnerInterval == 0 {
				cfg.InnerInterval = 64
			}
			return cfg
		},
		New: func(cfg registry.Config) (wear.Scheme, error) {
			return secref.NewMultiWay(cfg.Lines, cfg.Regions, cfg.InnerInterval, cfg.Seed)
		},
	},

	// Security RBSG, the paper's contribution.
	{
		Name:     "security-rbsg",
		Doc:      "Security RBSG: dynamic Feistel outer mapping + per-region Start-Gap",
		Caps:     registry.SchemeCaps{Exact: true, TimingOracle: true, AdjustableLevel: true},
		Defaults: srbsgDefaults,
		New: func(cfg registry.Config) (wear.Scheme, error) {
			return core.New(core.Config{
				Lines: cfg.Lines, Regions: cfg.Regions,
				InnerInterval: cfg.InnerInterval, OuterInterval: cfg.OuterInterval,
				Stages: cfg.Stages, Seed: cfg.Seed,
			})
		},
	},

	// Security RBSG with the detector-driven level controller closed over
	// it. Geometry defaults are "security-rbsg"'s (this is the same
	// scheme, plus the loop); detector and controller tuning take their
	// package defaults.
	{
		Name:     "srbsg-adaptive",
		Doc:      "Security RBSG + detector-driven controller tuning the DFN stage count live",
		Caps:     registry.SchemeCaps{Exact: true, TimingOracle: true, AdjustableLevel: true},
		Defaults: srbsgDefaults,
		New: func(cfg registry.Config) (wear.Scheme, error) {
			return seclevel.NewAdaptive(seclevel.AdaptiveConfig{
				Scheme: core.Config{
					Lines: cfg.Lines, Regions: cfg.Regions,
					InnerInterval: cfg.InnerInterval, OuterInterval: cfg.OuterInterval,
					Stages: cfg.Stages, Seed: cfg.Seed,
				},
			})
		},
	},
}

// rbsgDefaults follows the RBSG paper's recommended configuration
// (R=32, ψ=100), with no more regions than lines.
func rbsgDefaults(cfg registry.Config) registry.Config {
	if cfg.Regions == 0 {
		cfg.Regions = 32
		for cfg.Regions > cfg.Lines {
			cfg.Regions /= 2
		}
	}
	if cfg.InnerInterval == 0 {
		cfg.InnerInterval = 100
	}
	return cfg
}

// srbsgDefaults is the Security RBSG paper's suggested configuration
// (512 sub-regions, ψ_i=64, ψ_o=128, 7 DFN stages), with the region
// count scaled down on small tournament geometries so each inner
// Start-Gap region keeps at least 16 lines.
func srbsgDefaults(cfg registry.Config) registry.Config {
	if cfg.Regions == 0 {
		cfg.Regions = defaultRegions(cfg.Lines)
	}
	if cfg.InnerInterval == 0 {
		cfg.InnerInterval = 64
	}
	if cfg.OuterInterval == 0 {
		cfg.OuterInterval = 128
	}
	if cfg.Stages == 0 {
		cfg.Stages = 7
	}
	return cfg
}

// defaultRegions scales the paper's suggested 512 sub-regions down with
// the geometry so small tournament devices keep a meaningful region size
// (≥16 lines per region), staying a power of two dividing lines.
func defaultRegions(lines uint64) uint64 {
	r := uint64(512)
	for r > 1 && lines/r < 16 {
		r /= 2
	}
	return r
}
