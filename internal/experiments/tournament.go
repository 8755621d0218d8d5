package experiments

import (
	"context"
	"fmt"

	"securityrbsg/internal/registry"
	"securityrbsg/internal/runner"
)

// TournamentConfig selects the scheme×attack matrix and the device the
// tournament runs on. The zero value (plus Lines/Endurance) runs every
// registered exact-capable pairing.
type TournamentConfig struct {
	// Lines and Endurance define the simulated device; Lines must be a
	// power of two.
	Lines, Endurance uint64
	// MaxWrites caps the attacker's budget per cell; 0 lets each attack
	// adapter pick its documented default.
	MaxWrites uint64
	// Schemes and Attacks restrict the matrix to the named plugins; empty
	// means all registered. Unknown names are rejected with the registry's
	// listable errors.
	Schemes, Attacks []string
}

// TournamentCell is one playable pairing of the matrix.
type TournamentCell struct {
	Scheme, Attack string
}

// TournamentCells enumerates the exact-tier matrix for the given
// restriction: every (scheme, attack) pair that is registered,
// exact-capable on both sides, and capability-compatible. The list is
// sorted (scheme-major) so grids are stable across runs and registration
// order.
func TournamentCells(reg *registry.Registry, schemes, attacks []string) ([]TournamentCell, error) {
	if len(schemes) == 0 {
		schemes = reg.SchemeNames()
	}
	if len(attacks) == 0 {
		attacks = reg.AttackNames()
	}
	var cells []TournamentCell
	for _, sn := range schemes {
		s, err := reg.Scheme(sn)
		if err != nil {
			return nil, err
		}
		if !s.Caps.Exact {
			continue
		}
		for _, an := range attacks {
			a, err := reg.Attack(an)
			if err != nil {
				return nil, err
			}
			if !a.Caps.Exact {
				continue
			}
			if registry.CompatibleExact(s, a) != nil {
				continue
			}
			cells = append(cells, TournamentCell{Scheme: sn, Attack: an})
		}
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("tournament: no compatible (scheme, attack) pairs among schemes %v and attacks %v", schemes, attacks)
	}
	return cells, nil
}

// TournamentGrid builds the full-matrix tournament as a runner.Grid: one
// cell per compatible (scheme, attack) pair, each reporting lifetime
// (writes/seconds/fraction), detection latency (attacker- and, where the
// scheme implements registry.AlarmReporter, defender-side) and the
// wear-Gini coefficient of the final wear map.
//
// The grid name encodes the device geometry because the runner derives
// per-cell seeds from it: a 2^10-line smoke run and a 2^14-line play
// never share seeds. Each cell's sweep kernel runs on one worker, so
// the runner's pool is the only parallelism.
func TournamentGrid(reg *registry.Registry, tc TournamentConfig) (runner.Grid, error) {
	list, err := TournamentCells(reg, tc.Schemes, tc.Attacks)
	if err != nil {
		return runner.Grid{}, err
	}
	cells := make([]runner.Cell, len(list))
	byID := make(map[string]TournamentCell, len(list))
	for i, c := range list {
		id := fmt.Sprintf("scheme=%s/attack=%s", c.Scheme, c.Attack)
		cells[i] = runner.Cell{ID: id, Labels: map[string]string{
			"scheme": c.Scheme, "attack": c.Attack,
		}}
		byID[id] = c
	}
	// The budget changes cell semantics (it bounds the attacker), so a
	// non-default budget gets its own seed scope.
	name := fmt.Sprintf("tournament/lines=%d/endurance=%d", tc.Lines, tc.Endurance)
	if tc.MaxWrites > 0 {
		name += fmt.Sprintf("/budget=%d", tc.MaxWrites)
	}
	return runner.Grid{
		Name:  name,
		Cells: cells,
		Run: func(ctx context.Context, cell runner.Cell, seed uint64) (runner.Metrics, error) {
			c := byID[cell.ID]
			out, err := reg.RunExact(c.Scheme, c.Attack, registry.Config{
				Lines: tc.Lines, Endurance: tc.Endurance,
				MaxWrites: tc.MaxWrites, Seed: seed, Workers: 1,
			})
			if err != nil {
				return runner.Metrics{}, err
			}
			vals := out.Metrics()
			return runner.Metrics{Values: vals, SimWrites: vals["writes"]}, nil
		},
	}, nil
}
