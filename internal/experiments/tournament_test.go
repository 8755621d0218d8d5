package experiments

import (
	"context"
	"strings"
	"testing"

	"securityrbsg/internal/registry"
	"securityrbsg/internal/runner"
)

const (
	tourLines     = 1 << 8
	tourEndurance = 1500
)

func tournamentReport(t *testing.T, workers int) *runner.Report {
	t.Helper()
	grid, err := TournamentGrid(registry.Default, TournamentConfig{
		Lines: tourLines, Endurance: tourEndurance,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runner.Run(context.Background(), grid, runner.Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.FailedErr(); err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestTournamentFullMatrix: every registered, capability-compatible
// pairing plays to completion, and the headline metrics are present and
// sane in every cell.
func TestTournamentFullMatrix(t *testing.T) {
	cells, err := TournamentCells(registry.Default, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) < 25 {
		t.Fatalf("matrix shrank to %d cells", len(cells))
	}
	rep := tournamentReport(t, 0)
	if rep.Done != len(cells) {
		t.Fatalf("%d/%d cells done", rep.Done, len(cells))
	}
	for _, res := range rep.Results {
		v := res.Metrics.Values
		if v["writes"] <= 0 {
			t.Errorf("%s: no writes recorded", res.ID)
		}
		if g := v["wear_gini"]; g < 0 || g > 1 {
			t.Errorf("%s: wear gini %v outside [0,1]", res.ID, g)
		}
		if v["defense_held"] == 0 && v["fraction"] <= 0 {
			t.Errorf("%s: failed the device but fraction is %v", res.ID, v["fraction"])
		}
	}
}

// TestTournamentWorkerInvariance: the grid's results are identical no
// matter how it is sharded — the runner seeds by (grid, cell), never by
// worker.
func TestTournamentWorkerInvariance(t *testing.T) {
	seq := tournamentReport(t, 1)
	par := tournamentReport(t, 8)
	if len(seq.Results) != len(par.Results) {
		t.Fatalf("cell counts differ: %d vs %d", len(seq.Results), len(par.Results))
	}
	for i, a := range seq.Results {
		b := par.Results[i]
		if a.ID != b.ID || a.Seed != b.Seed {
			t.Fatalf("cell order drifted at %d: %s vs %s", i, a.ID, b.ID)
		}
		for k, v := range a.Metrics.Values {
			if b.Metrics.Values[k] != v {
				t.Errorf("%s: metric %s differs across worker counts: %v vs %v",
					a.ID, k, v, b.Metrics.Values[k])
			}
		}
	}
}

// TestTournamentSubsetsAndErrors: name filters restrict the matrix;
// unknown names surface the registry's listable errors; all-model-only
// selections are rejected.
func TestTournamentSubsetsAndErrors(t *testing.T) {
	cells, err := TournamentCells(registry.Default, []string{"rbsg"}, []string{"raa", "rta"})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("rbsg×{raa,rta} = %d cells, want 2", len(cells))
	}
	if _, err := TournamentCells(registry.Default, []string{"bogus"}, nil); err == nil ||
		!strings.Contains(err.Error(), `unknown scheme "bogus"`) {
		t.Fatalf("unknown scheme: %v", err)
	}
	if _, err := TournamentCells(registry.Default, nil, []string{"focused"}); err == nil ||
		!strings.Contains(err.Error(), "no compatible") {
		t.Fatalf("model-only attack subset: %v", err)
	}
	// rta vs none is blocked by the timing-oracle gate, leaving nothing.
	if _, err := TournamentCells(registry.Default, []string{"none"}, []string{"rta"}); err == nil {
		t.Fatal("rta vs none should leave an empty matrix")
	}
}

// TestTournamentDetectionMetrics: the detector-wrapped scheme is the one
// cell family reporting defender-side first-alarm latency, and the RTA
// cells report attacker-side detection writes.
func TestTournamentDetectionMetrics(t *testing.T) {
	grid, err := TournamentGrid(registry.Default, TournamentConfig{
		Lines: tourLines, Endurance: tourEndurance,
		Schemes: []string{"rbsg", "rbsg+detector"}, Attacks: []string{"raa", "rta"},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runner.Run(context.Background(), grid, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.FailedErr(); err != nil {
		t.Fatal(err)
	}
	for _, res := range rep.Results {
		_, alarmed := res.Metrics.Values["first_alarm_write"]
		wantAlarm := res.Labels["scheme"] == "rbsg+detector"
		if alarmed != wantAlarm {
			t.Errorf("%s: first_alarm_write present=%v, want %v", res.ID, alarmed, wantAlarm)
		}
		if res.Labels["attack"] == "rta" && res.Labels["scheme"] == "rbsg" {
			if res.Metrics.Values["detect_writes"] <= 0 {
				t.Errorf("%s: RTA reported no detection writes", res.ID)
			}
		}
	}
}
