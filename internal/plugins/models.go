package plugins

import (
	"securityrbsg/internal/lifetime"
	"securityrbsg/internal/registry"
)

// model is one (scheme, attack) pair's closed-form or Monte-Carlo
// lifetime model (internal/lifetime), the registry's model tier.
type model struct {
	scheme, attack string
	fn             registry.ModelFunc
}

// models are the model-tier entries, one per modeled pair.
var models = []model{
	{"none", "raa", baseline},
	{"none", "bpa", baseline},
	{"none", "rta", baseline},

	{"start-gap", "raa", exact(func(cfg registry.Config) lifetime.Estimate {
		return lifetime.RAAOnStartGap(cfg.Device(), cfg.InnerInterval)
	})},

	{"rbsg", "raa", exact(func(cfg registry.Config) lifetime.Estimate {
		return lifetime.RAAOnRBSG(cfg.Device(), rbOf(cfg))
	})},
	{"rbsg", "bpa", exact(func(cfg registry.Config) lifetime.Estimate {
		return lifetime.BPAOnRBSG(cfg.Device(), rbOf(cfg))
	})},
	{"rbsg", "rta", exact(func(cfg registry.Config) lifetime.Estimate {
		return lifetime.RTAOnRBSG(cfg.Device(), rbOf(cfg))
	})},

	{"multiway-sr", "focused", focused},
	{"multiway-sr", "rta", focused},

	{"two-level-sr", "raa", exact(func(cfg registry.Config) lifetime.Estimate {
		return lifetime.RAAOnTwoLevelSR(cfg.Device(), srOf(cfg))
	})},
	{"two-level-sr", "bpa", exact(func(cfg registry.Config) lifetime.Estimate {
		return lifetime.BPAOnTwoLevelSR(cfg.Device(), srOf(cfg))
	})},
	{"two-level-sr", "rta", exact(func(cfg registry.Config) lifetime.Estimate {
		return lifetime.RTAOnTwoLevelSRAvg(cfg.Device(), srOf(cfg), cfg.Runs, cfg.Seed)
	})},

	{"security-rbsg", "raa", func(cfg registry.Config) (lifetime.Estimate, error) {
		return lifetime.RAAOnSecurityRBSGAvg(cfg.Device(), srbsgOf(cfg), cfg.Runs, cfg.Seed)
	}},
	{"security-rbsg", "bpa", exact(func(cfg registry.Config) lifetime.Estimate {
		return lifetime.BPAOnSecurityRBSG(cfg.Device(), srbsgOf(cfg))
	})},
	{"security-rbsg", "rta", func(cfg registry.Config) (lifetime.Estimate, error) {
		e, _, err := lifetime.RTAOnSecurityRBSG(cfg.Device(), srbsgOf(cfg), cfg.Seed)
		return e, err
	}},
}

var (
	baseline = exact(func(cfg registry.Config) lifetime.Estimate {
		return lifetime.Baseline(cfg.Device())
	})
	focused = exact(func(cfg registry.Config) lifetime.Estimate {
		return lifetime.FocusedOnMultiWay(cfg.Device(), cfg.Regions, cfg.InnerInterval)
	})
)

// exact wraps an error-free model function.
func exact(fn func(cfg registry.Config) lifetime.Estimate) registry.ModelFunc {
	return func(cfg registry.Config) (lifetime.Estimate, error) { return fn(cfg), nil }
}

// Parameter views of the declarative cell configuration.

func srOf(cfg registry.Config) lifetime.SRParams {
	return lifetime.SRParams{Regions: cfg.Regions, InnerInterval: cfg.InnerInterval, OuterInterval: cfg.OuterInterval}
}

func rbOf(cfg registry.Config) lifetime.RBSGParams {
	return lifetime.RBSGParams{Regions: cfg.Regions, Interval: cfg.InnerInterval}
}

func srbsgOf(cfg registry.Config) lifetime.SRBSGParams {
	return lifetime.SRBSGParams{
		Regions: cfg.Regions, InnerInterval: cfg.InnerInterval,
		OuterInterval: cfg.OuterInterval, Stages: cfg.Stages,
	}
}
