package main

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strconv"

	"securityrbsg/internal/core"
	"securityrbsg/internal/lifetime"
	"securityrbsg/internal/pcm"
	"securityrbsg/internal/runner"
	"securityrbsg/internal/seclevel"
	"securityrbsg/internal/stats"
	"securityrbsg/internal/wear"
)

// The exact-tier geometry: small enough that remap rounds (the only
// instants the controller acts) close every ~17k writes, so one cell
// sees several round boundaries; large enough that the detector's
// default window (64·regions = 1024 writes) separates a hammer
// (~1024 writes/region/window) from uniform traffic (~64).
const (
	exLines    = 1024
	exRegions  = 16
	exInner    = 8
	exOuter    = 16
	bootStages = 4

	benignWrites = 120_000 // static cells: benign stream length
	phaseWrites  = 60_000  // adaptive cells: per-phase stream length
)

// adaptive: the adaptive security level's tradeoff curve. It is not a
// paper figure, and its geometry is fixed, so -full and -runs do not
// apply.
func (g *generator) adaptive() error {
	rep, err := g.runGrid(buildGrid())
	if err != nil {
		return err
	}
	return g.emit("adaptive_tradeoff.csv", func(w io.Writer) error {
		return runner.WriteCSV(w, rep)
	})
}

// buildGrid is the adaptive figure's grid, the adaptive-security-level
// tradeoff curve: what each DFN stage count buys (model-tier attack
// lifetime) and costs (exact-tier benign latency and remap-movement
// overhead), and how the closed loop (internal/seclevel) navigates that
// curve per policy.
//
// Two kinds of cells, all deterministic (seeded streams, simulated
// nanoseconds only — reruns emit byte-identical CSV):
//
//   - static/stages=S: Security RBSG pinned at level S. Model tier
//     reports the RTA lifetime at paper-transferable scale
//     (lifetime.RTAOnSecurityRBSG); the exact tier drives a seeded
//     uniform write stream through a simulated bank and reports p50/p99
//     demand latency and the remap write overhead.
//   - adaptive/policy=P: the full closed loop (monitor → controller →
//     SetStages) under a benign → hammer → benign stream: when the level
//     escalates (first-raise write index), how far, per-phase latency,
//     and the overhead of riding the curve instead of pinning its
//     ceiling.
func buildGrid() runner.Grid {
	var cells []runner.Cell
	for _, l := range []int{3, 5, 7, 9, 11} {
		s := strconv.Itoa(l)
		cells = append(cells, runner.Cell{
			ID:     "static/stages=" + s,
			Labels: map[string]string{"mode": "static", "stages": s, "policy": "-"},
		})
	}
	for _, p := range seclevel.PolicyNames() {
		cells = append(cells, runner.Cell{
			ID:     "adaptive/policy=" + p,
			Labels: map[string]string{"mode": "adaptive", "stages": "-", "policy": p},
		})
	}
	return runner.Grid{
		// The geometry and stream lengths are part of cell semantics:
		// encode them in the name so checkpoints and seeds never cross
		// incompatible sweeps.
		Name:  fmt.Sprintf("adaptive-tradeoff/l%d-r%d-i%d-o%d-w%d", exLines, exRegions, exInner, exOuter, phaseWrites),
		Cells: cells,
		Run:   runCell,
	}
}

func runCell(_ context.Context, cell runner.Cell, seed uint64) (runner.Metrics, error) {
	switch cell.Labels["mode"] {
	case "static":
		stages, _ := strconv.Atoi(cell.Labels["stages"])
		return staticCell(stages, seed)
	case "adaptive":
		return adaptiveCell(cell.Labels["policy"], seed)
	default:
		return runner.Metrics{}, fmt.Errorf("adaptive: unknown cell mode %q", cell.Labels["mode"])
	}
}

// staticCell measures one point of the level tradeoff curve.
func staticCell(stages int, seed uint64) (runner.Metrics, error) {
	// Model tier: attack lifetime at paper-transferable scale.
	d, p := lifetime.ScaledSRBSGExperiment(stages)
	est, secure, err := lifetime.RTAOnSecurityRBSG(d, p, seed)
	if err != nil {
		return runner.Metrics{}, err
	}

	// Exact tier: benign latency and movement overhead at level S.
	s, err := core.New(core.Config{
		Lines: exLines, Regions: exRegions,
		InnerInterval: exInner, OuterInterval: exOuter,
		Stages: stages, Seed: seed,
	})
	if err != nil {
		return runner.Metrics{}, err
	}
	ctrl := wear.MustNewController(pcm.Config{
		Endurance: pcm.MaxEndurance, Timing: pcm.DefaultTiming,
	}, s)
	rng := stats.NewRNG(seed)
	lat := make([]float64, benignWrites)
	for i := range lat {
		lat[i] = float64(ctrl.Write(rng.Uint64n(exLines), pcm.Mixed))
	}
	p50, p99 := percentiles(lat)

	v := map[string]float64{
		"rta_writes":     est.Writes,
		"rta_seconds":    est.Seconds,
		"rta_fraction":   est.FractionOfIdeal,
		"rta_secure":     b2f(secure),
		"benign_p50_ns":  p50,
		"benign_p99_ns":  p99,
		"write_overhead": ctrl.WriteOverhead(),
		"remap_events":   float64(ctrl.RemapEvents()),
		"demand_writes":  float64(ctrl.DemandWrites()),
	}
	return runner.Metrics{Values: v, SimWrites: float64(ctrl.DemandWrites())}, nil
}

// adaptiveCell drives the closed loop through benign → hammer → benign
// and measures its response and cost.
func adaptiveCell(policy string, seed uint64) (runner.Metrics, error) {
	a, err := seclevel.NewAdaptive(seclevel.AdaptiveConfig{
		Scheme: core.Config{
			Lines: exLines, Regions: exRegions,
			InnerInterval: exInner, OuterInterval: exOuter,
			Stages: bootStages, Seed: seed,
		},
		Level: seclevel.Config{Policy: policy},
	})
	if err != nil {
		return runner.Metrics{}, err
	}
	ctrl := wear.MustNewController(pcm.Config{
		Endurance: pcm.MaxEndurance, Timing: pcm.DefaultTiming,
	}, a)
	rng := stats.NewRNG(seed)
	maxLevel := a.Level()
	a.Controller().OnApply = func(d seclevel.Decision) {
		if d.To > maxLevel {
			maxLevel = d.To
		}
	}

	phase := func(next func() uint64) (p50, p99 float64) {
		lat := make([]float64, phaseWrites)
		for i := range lat {
			lat[i] = float64(ctrl.Write(next(), pcm.Mixed))
		}
		return percentiles(lat)
	}
	uniform := func() uint64 { return rng.Uint64n(exLines) }
	victim := 17 + seed%97 // any fixed line; vary by seed, never line 0
	hammer := func() uint64 { return victim % exLines }

	benignP50, benignP99 := phase(uniform)
	attackP50, attackP99 := phase(hammer)
	levelAtPeak := a.Level()
	tailP50, tailP99 := phase(uniform)

	firstRaise, raised := a.FirstRaiseWrite()
	firstAlarm, alarmed := a.FirstAlarmWrite()
	v := map[string]float64{
		"boot_level":     bootStages,
		"final_level":    float64(a.Level()),
		"peak_level":     float64(levelAtPeak),
		"max_level":      float64(maxLevel),
		"raises":         float64(a.Controller().Raises()),
		"lowers":         float64(a.Controller().Lowers()),
		"benign_p50_ns":  benignP50,
		"benign_p99_ns":  benignP99,
		"attack_p50_ns":  attackP50,
		"attack_p99_ns":  attackP99,
		"tail_p50_ns":    tailP50,
		"tail_p99_ns":    tailP99,
		"write_overhead": ctrl.WriteOverhead(),
		"demand_writes":  float64(ctrl.DemandWrites()),
	}
	if raised {
		// Index within the attack phase: writes after the hammer began.
		v["first_raise_write"] = float64(firstRaise) - phaseWrites
	}
	if alarmed {
		v["first_alarm_write"] = float64(firstAlarm) - phaseWrites
	}
	return runner.Metrics{Values: v, SimWrites: float64(ctrl.DemandWrites())}, nil
}

// percentiles returns the p50 and p99 of lat (which it sorts in place).
func percentiles(lat []float64) (p50, p99 float64) {
	sort.Float64s(lat)
	at := func(q float64) float64 { return lat[int(q*float64(len(lat)-1))] }
	return at(0.50), at(0.99)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
