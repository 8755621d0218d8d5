package plugins

import (
	"fmt"
	"math"

	"securityrbsg/internal/attack"
	"securityrbsg/internal/pcm"
	"securityrbsg/internal/registry"
)

// attacks are the matrix's attacks: each adapts an internal/attack
// implementation to a declarative-config runner, plus the capability
// flags that gate which schemes it can face. The adapters own the
// attacker's parameter choices (victim address, hammer stint, sequence
// length, default budgets) so that a tournament cell is fully determined
// by (scheme, attack, Config).
var attacks = []registry.Attack{
	{
		Name: "raa",
		Doc:  "Repeated Address Attack: hammer one logical address",
		Caps: registry.AttackCaps{Exact: true},
		RunExact: func(env *registry.Env) (registry.Result, error) {
			return fromResult(attack.RAA(env.Controller, victimLA(env.Cfg.Lines), pcm.Mixed, env.Cfg.MaxWrites)), nil
		},
	},
	{
		Name: "bpa",
		Doc:  "Birthday Paradox Attack: hammer random addresses one LVF stint each",
		Caps: registry.AttackCaps{Exact: true},
		RunExact: func(env *registry.Env) (registry.Result, error) {
			// The attacker sizes each stint to the scheme's Line
			// Vulnerability Factor — the writes an address can absorb
			// before it has plausibly been remapped away. Schemes without
			// a remapping interval (the baseline) get endurance-sized
			// stints: hammering until the line dies is then optimal.
			cfg := env.Cfg
			stint := cfg.Endurance
			if cfg.InnerInterval > 0 {
				regions := cfg.Regions
				if regions == 0 {
					regions = 1
				}
				stint = (cfg.Lines/regions + 1) * cfg.InnerInterval
			}
			return fromResult(attack.BPA(env.Controller, stint, pcm.Mixed, cfg.Seed, cfg.MaxWrites)), nil
		},
	},
	{
		Name: "aia",
		Doc:  "Address Inference Attack: pin one physical line via a mapping oracle",
		Caps: registry.AttackCaps{Exact: true},
		RunExact: func(env *registry.Env) (registry.Result, error) {
			return fromResult(attack.AIA(env.Controller, 0, pcm.Mixed, env.Cfg.MaxWrites)), nil
		},
	},
	{
		Name: "rta",
		Doc:  "Remapping Timing Attack: extract mapping secrets from remap latencies",
		Caps: registry.AttackCaps{
			Exact:             true,
			NeedsTimingOracle: true,
			// One shadow model per victim family; schemes outside this
			// list are rejected before any simulation starts.
			ExactTargets: []string{
				"start-gap", "rbsg", "rbsg+detector",
				"security-refresh", "two-level-sr", "security-rbsg",
				"srbsg-adaptive",
			},
		},
		Prepare:  prepareRTA,
		RunExact: runRTA,
	},
	// The focused-write adversary of the Multi-Way SR analysis exists
	// only as a closed form; it registers model-only (no exact runner).
	{
		Name: "focused",
		Doc:  "model-only focused writes tracking one Multi-Way SR sub-region",
	},
}

// victimLA picks the attacked logical address: the conventional LA 17
// used throughout the repo's demos, folded into small spaces and kept
// nonzero (RTASR reserves address 0 as its probe line).
func victimLA(lines uint64) uint64 {
	la := uint64(17) % lines
	if la == 0 {
		la = 1
	}
	return la
}

// hardened names the schemes the RTA is *expected* to fail against: a
// run error (shadow-model breakdown) there means the defense held, not
// that the cell is broken.
func hardened(scheme string) bool {
	return scheme == "security-rbsg" || scheme == "rbsg+detector" || scheme == "srbsg-adaptive"
}

// fromResult converts an attack.Result, marking a budget-bounded run
// that failed no line as an abort (the defense held). The failed line
// is registry.RunExact's to fill in: it reads it from the bank.
func fromResult(r attack.Result) registry.Result {
	out := registry.Result{Writes: r.Writes, AttackNs: r.AttackNs, Failed: r.Failed}
	if !r.Failed {
		out.Aborted = true
		out.Note = "write budget exhausted"
	}
	return out
}

// prepareRTA adjusts the resolved configuration to the attack's
// documented minimums — or rejects the pairing before any simulation
// state is built.
func prepareRTA(s *registry.Scheme, cfg registry.Config) (registry.Config, error) {
	switch s.Name {
	case "security-refresh":
		// Alignment can deposit up to 1.5 refresh rounds on the probe
		// line before the wear phase begins (see cmd/attackdemo).
		if min := cfg.Lines * cfg.InnerInterval * 3 / 2; cfg.Endurance < min {
			cfg.Endurance = min
		}
	case "two-level-sr":
		// Several outer rounds must complete before the flood kills its
		// target sub-region (see cmd/attackdemo).
		if min := 12 * (cfg.Lines / cfg.Regions) * cfg.InnerInterval; cfg.Endurance < min {
			cfg.Endurance = min
		}
	case "start-gap", "rbsg":
		// The wear phase consumes one recovered predecessor per region
		// rotation; the recoverable sequence is capped at the region
		// size, so an over-provisioned endurance cannot be worn through.
		per := cfg.Lines / cfg.Regions
		if per >= 2 {
			need := rbsgSeqLen(cfg.Endurance, per, cfg.InnerInterval)
			if max := per - 1; need > max {
				return cfg, fmt.Errorf("endurance %d needs a %d-line wear sequence but the region holds only %d lines — shrink endurance or regions",
					cfg.Endurance, need, per)
			}
		}
	case "security-rbsg", "rbsg+detector", "srbsg-adaptive":
		// The attack is expected to fail here, and without a failing
		// line nothing else bounds it: give it the generous default
		// budget the demos use.
		if cfg.MaxWrites == 0 {
			cfg.MaxWrites = 100 * cfg.Lines * cfg.InnerInterval
		}
	}
	return cfg, nil
}

// rbsgSeqLen is the wear-phase sequence length: the paper's
// n = ceil(E/((n′+1)·ψ)) predecessors plus one spare for rounding.
func rbsgSeqLen(endurance, perRegion, interval uint64) uint64 {
	return uint64(math.Ceil(float64(endurance)/float64((perRegion+1)*interval))) + 1
}

// runRTA plays the timing attack whose shadow model fits the victim's
// family. start-gap, rbsg, rbsg+detector, security-rbsg and
// srbsg-adaptive all face the RBSG shadow model — for the hardened three
// that is the point: the attacker wrongly models the victim as plain
// RBSG, and the cell records whether that breaks.
func runRTA(env *registry.Env) (registry.Result, error) {
	cfg := env.Cfg
	timing := cfg.Device().Timing
	oracle := func() bool { return env.Controller.Bank().Failed() }
	var run func() (attack.Result, error)
	var phases *attack.Phases
	switch env.Scheme.Name {
	case "security-refresh":
		a := &attack.RTASR{
			Target: env.Target,
			Lines:  cfg.Lines, Interval: cfg.InnerInterval,
			Timing: timing, Li: victimLA(cfg.Lines),
			MaxWrites: cfg.MaxWrites, Oracle: oracle,
		}
		run, phases = a.Run, &a.Phases
	case "two-level-sr":
		a := &attack.RTATwoLevelSRExact{
			Target: env.Target,
			Lines:  cfg.Lines, Regions: cfg.Regions,
			InnerInterval: cfg.InnerInterval, OuterInterval: cfg.OuterInterval,
			Timing: timing, MaxWrites: cfg.MaxWrites, Oracle: oracle,
		}
		run, phases = a.Run, &a.Phases
	default:
		per := cfg.Lines / cfg.Regions
		seqLen := rbsgSeqLen(cfg.Endurance, per, cfg.InnerInterval)
		if max := per - 1; per >= 2 && seqLen > max {
			seqLen = max // hardened targets: the attack aborts long before this matters
		}
		a := &attack.RTARBSG{
			Target: env.Target,
			Lines:  cfg.Lines, Regions: cfg.Regions, Interval: cfg.InnerInterval,
			Timing: timing, Li: victimLA(cfg.Lines), SeqLen: seqLen,
			MaxWrites: cfg.MaxWrites, Oracle: oracle,
		}
		run, phases = a.Run, &a.Phases
	}
	res, err := run()
	out := fromResult(res)
	out.Phases = *phases
	if err != nil && hardened(env.Scheme.Name) {
		out.Aborted = true
		out.Note = "attack aborted: " + err.Error()
		return out, nil
	}
	return out, err
}
