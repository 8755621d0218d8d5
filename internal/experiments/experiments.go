// Package experiments declares the paper's Monte-Carlo evaluation grids
// (Figs 14–16 and the cross-scheme comparison) as runner.Grids, so
// cmd/figgen, cmd/lifetime and the test suite all drive the exact same
// cell definitions through the sharded experiment runner instead of
// ad-hoc loops.
//
// Each grid's name encodes everything that changes cell semantics —
// figure, scale, trial count — because the runner derives per-cell RNG
// seeds from (grid name, cell ID) and scopes checkpoints by grid name:
// two different configurations can never share seeds or checkpoints.
package experiments

import (
	"context"
	"fmt"

	"securityrbsg/internal/lifetime"
	"securityrbsg/internal/registry"
	"securityrbsg/internal/runner"
	"securityrbsg/internal/stats"

	// Evaluate composes by registry name, so the plugin table must be
	// linked wherever experiments is.
	_ "securityrbsg/internal/plugins"
)

// Scale selects the device geometry for the Monte-Carlo grids.
type Scale int

const (
	// ScaleLaptop is the ratio-preserving 2^18-line geometry (see
	// DESIGN.md, "Scale policy"): fractions-of-ideal transfer to paper
	// scale, runs take seconds.
	ScaleLaptop Scale = iota
	// ScaleFull is the paper's 1 GB geometry (2^22 lines, 10^8
	// endurance): minutes per figure.
	ScaleFull
	// ScaleTest is a tiny 2^12-line geometry for CI: milliseconds per
	// cell, same code paths.
	ScaleTest
)

func (s Scale) String() string {
	switch s {
	case ScaleFull:
		return "full"
	case ScaleTest:
		return "test"
	default:
		return "laptop"
	}
}

// testSRBSG builds the CI geometry: preserves the structure (regions
// divide lines, visit threshold well under the uint16 cap) at a size
// where a cell is milliseconds.
func testSRBSG(regions, inner, outer uint64, stages int) (lifetime.Device, lifetime.SRBSGParams) {
	p := lifetime.SRBSGParams{Regions: regions, InnerInterval: inner, OuterInterval: outer, Stages: stages}
	lines := uint64(1) << 12
	quantum := (lines/p.Regions + 1) * p.InnerInterval
	return lifetime.ScaledDevice(lines, 8*quantum), p
}

// Fig14Grid is the DFN stage sweep behind Fig 14: Security RBSG
// lifetime under RAA (averaged over `runs` key draws) and BPA at each
// stage count 3..20. Metrics: raa_fraction, bpa_fraction.
func Fig14Grid(sc Scale, runs int) runner.Grid {
	const minStages, maxStages = 3, 20
	cells := make([]runner.Cell, 0, maxStages-minStages+1)
	for s := minStages; s <= maxStages; s++ {
		cells = append(cells, runner.Cell{
			ID:     fmt.Sprintf("stages=%02d", s),
			Labels: map[string]string{"fig": "fig14", "stages": fmt.Sprint(s)},
		})
	}
	stageOf := func(id string) int {
		var s int
		fmt.Sscanf(id, "stages=%d", &s)
		return s
	}
	return runner.Grid{
		Name:  fmt.Sprintf("fig14/scale=%s/runs=%d", sc, runs),
		Cells: cells,
		Run: func(ctx context.Context, c runner.Cell, seed uint64) (runner.Metrics, error) {
			stages := stageOf(c.ID)
			var d lifetime.Device
			var p lifetime.SRBSGParams
			switch sc {
			case ScaleFull:
				d = lifetime.PaperDevice()
				p = lifetime.SuggestedSRBSGParams()
				p.Stages = stages
			case ScaleTest:
				d, p = testSRBSG(16, 16, 32, stages)
			default:
				d, p = lifetime.ScaledSRBSGExperiment(stages)
			}
			raa, err := lifetime.RAAOnSecurityRBSGAvg(d, p, runs, seed)
			if err != nil {
				return runner.Metrics{}, err
			}
			bpa := lifetime.BPAOnSecurityRBSG(d, p)
			return runner.Metrics{
				Values: map[string]float64{
					"raa_fraction": raa.FractionOfIdeal,
					"bpa_fraction": bpa.FractionOfIdeal,
				},
				SimWrites: raa.Writes * float64(runs),
			}, nil
		},
	}
}

// Fig15Cells is the Table-I configuration grid shared by Figs 12, 13
// and 15: (sub-regions, inner ψ, outer ψ) in paper-scale units.
type Fig15Cell struct {
	Regions, Inner, Outer uint64
}

// Fig15CellList enumerates the Table-I grid in CSV row order.
func Fig15CellList() []Fig15Cell {
	var grid []Fig15Cell
	for _, regions := range []uint64{256, 512, 1024} {
		for _, inner := range []uint64{16, 32, 64, 128} {
			for _, outer := range []uint64{16, 32, 64, 128, 256} {
				grid = append(grid, Fig15Cell{regions, inner, outer})
			}
		}
	}
	return grid
}

// Fig15Grid is Security RBSG under RAA over the Table-I grid at 7 DFN
// stages (Fig 15). Metrics: fraction (of ideal lifetime).
func Fig15Grid(sc Scale, runs int) runner.Grid {
	list := Fig15CellList()
	cells := make([]runner.Cell, len(list))
	byID := make(map[string]Fig15Cell, len(list))
	for i, c := range list {
		id := fmt.Sprintf("regions=%d/inner=%d/outer=%d", c.Regions, c.Inner, c.Outer)
		cells[i] = runner.Cell{ID: id, Labels: map[string]string{
			"fig":     "fig15",
			"regions": fmt.Sprint(c.Regions),
			"inner":   fmt.Sprint(c.Inner),
			"outer":   fmt.Sprint(c.Outer),
		}}
		byID[id] = c
	}
	return runner.Grid{
		Name:  fmt.Sprintf("fig15/scale=%s/runs=%d", sc, runs),
		Cells: cells,
		Run: func(ctx context.Context, cell runner.Cell, seed uint64) (runner.Metrics, error) {
			c := byID[cell.ID]
			var d lifetime.Device
			p := lifetime.SRBSGParams{
				Regions: c.Regions, InnerInterval: c.Inner,
				OuterInterval: c.Outer, Stages: 7,
			}
			switch sc {
			case ScaleFull:
				d = lifetime.PaperDevice()
			case ScaleTest:
				d, p = testSRBSG(c.Regions/64, c.Inner, c.Outer, 7)
			default:
				// Preserve m ≈ 191 and scale the region count with the
				// 16x-smaller line count.
				p.Regions = c.Regions / 16
				lines := uint64(1) << 18
				quantum := (lines/p.Regions + 1) * p.InnerInterval
				d = lifetime.ScaledDevice(lines, 191*quantum)
			}
			e, err := lifetime.RAAOnSecurityRBSGAvg(d, p, runs, seed)
			if err != nil {
				return runner.Metrics{}, err
			}
			return runner.Metrics{
				Values:    map[string]float64{"fraction": e.FractionOfIdeal},
				SimWrites: e.Writes * float64(runs),
			}, nil
		},
	}
}

// Fig16Points is the resolution of the Fig 16 cumulative-wear curves.
const Fig16Points = 64

// Fig16Totals returns the RAA write totals evaluated by Fig 16 at the
// given scale (the paper's 10^10..10^13, scaled with the line count).
func Fig16Totals(sc Scale) []float64 {
	div := 1.0
	switch sc {
	case ScaleTest:
		div = 1024 // 2^12 vs 2^22 lines
	case ScaleLaptop:
		div = 16 // 2^18 vs 2^22 lines
	}
	return []float64{1e10 / div, 1e11 / div, 1e12 / div, 1e13 / div}
}

// Fig16Grid is the wear-distribution experiment behind Fig 16: one cell
// per accumulated-write total, each returning the normalized cumulative
// wear curve over Fig16Points address-space quantiles as its Series.
func Fig16Grid(sc Scale) runner.Grid {
	totals := Fig16Totals(sc)
	cells := make([]runner.Cell, len(totals))
	byID := make(map[string]float64, len(totals))
	for i, total := range totals {
		id := fmt.Sprintf("total=%.3e", total)
		cells[i] = runner.Cell{ID: id, Labels: map[string]string{"fig": "fig16"}}
		byID[id] = total
	}
	return runner.Grid{
		Name:  fmt.Sprintf("fig16/scale=%s", sc),
		Cells: cells,
		Run: func(ctx context.Context, cell runner.Cell, seed uint64) (runner.Metrics, error) {
			total := byID[cell.ID]
			var d lifetime.Device
			var p lifetime.SRBSGParams
			switch sc {
			case ScaleFull:
				d = lifetime.PaperDevice()
				p = lifetime.SuggestedSRBSGParams()
			case ScaleTest:
				d, p = testSRBSG(16, 16, 32, 7)
			default:
				d, p = lifetime.ScaledSRBSGExperiment(7)
			}
			counts, err := lifetime.WriteDistribution(d, p, total, seed)
			if err != nil {
				return runner.Metrics{}, err
			}
			pts := make([]int, Fig16Points)
			for k := range pts {
				pts[k] = (k + 1) * len(counts) / Fig16Points
			}
			return runner.Metrics{
				Series:    stats.NormalizedCumulative(counts, pts),
				SimWrites: total,
			}, nil
		},
	}
}

// CompareRow names one row of the cross-scheme comparison table.
type CompareRow struct {
	Scheme, Attack string
	Params         lifetime.SRBSGParams
}

// CompareRows is the headline comparison: every scheme at its
// recommended configuration under each applicable attack.
func CompareRows() []CompareRow {
	rbsg := lifetime.SRBSGParams{Regions: 32, InnerInterval: 100}
	rec := lifetime.SRBSGParams{Regions: 512, InnerInterval: 64, OuterInterval: 128, Stages: 7}
	return []CompareRow{
		{"none", "raa", lifetime.SRBSGParams{}},
		{"rbsg", "raa", rbsg},
		{"rbsg", "bpa", rbsg},
		{"rbsg", "rta", rbsg},
		{"multiway-sr", "focused", rec},
		{"two-level-sr", "raa", rec},
		{"two-level-sr", "rta", rec},
		{"security-rbsg", "raa", rec},
		{"security-rbsg", "bpa", rec},
		{"security-rbsg", "rta", rec},
	}
}

// CompareGrid drives the comparison table through the runner: one cell
// per (scheme, attack) row on the given device. Metrics: writes,
// seconds, fraction.
func CompareGrid(d lifetime.Device, runs int) runner.Grid {
	rows := CompareRows()
	cells := make([]runner.Cell, len(rows))
	byID := make(map[string]CompareRow, len(rows))
	for i, r := range rows {
		id := fmt.Sprintf("scheme=%s/attack=%s", r.Scheme, r.Attack)
		cells[i] = runner.Cell{ID: id, Labels: map[string]string{
			"scheme": r.Scheme, "attack": r.Attack,
		}}
		byID[id] = r
	}
	return runner.Grid{
		Name:  fmt.Sprintf("compare/lines=%d/runs=%d", d.Lines, runs),
		Cells: cells,
		Run: func(ctx context.Context, cell runner.Cell, seed uint64) (runner.Metrics, error) {
			r := byID[cell.ID]
			e, err := Evaluate(d, r.Scheme, r.Attack, r.Params, runs, seed)
			if err != nil {
				return runner.Metrics{}, err
			}
			return runner.Metrics{
				Values: map[string]float64{
					"writes":   e.Writes,
					"seconds":  e.Seconds,
					"fraction": e.FractionOfIdeal,
				},
				SimWrites: e.Writes,
			}, nil
		},
	}
}

// Evaluate computes the lifetime of one (scheme, attack, configuration)
// triple — the single-cell evaluation behind cmd/lifetime. It resolves
// the pair through the plugin registry's model tier (see
// internal/plugins); the error for an unknown pairing lists the modeled
// combinations. All randomness derives from seed.
func Evaluate(d lifetime.Device, scheme, att string, p lifetime.SRBSGParams, runs int, seed uint64) (lifetime.Estimate, error) {
	return registry.Default.EvalModel(scheme, att, registry.Config{
		Lines: d.Lines, Endurance: d.Endurance, Timing: d.Timing,
		Regions: p.Regions, InnerInterval: p.InnerInterval,
		OuterInterval: p.OuterInterval, Stages: p.Stages,
		Runs: runs, Seed: seed,
	})
}
