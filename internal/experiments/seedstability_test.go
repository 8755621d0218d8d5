package experiments_test

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"securityrbsg/internal/experiments"
	"securityrbsg/internal/runner"
)

// Seed-stability regression: the SHA-256 fingerprints below were
// captured from the Monte-Carlo grids BEFORE the hot-path rewrite
// (materialized permutation tables, segment-batched visit deposits,
// reusable simulators, worker-pooled trial averaging). Every optimized
// kernel must keep producing byte-identical metrics for a fixed seed —
// the repo's determinism contract (DESIGN.md) is what makes CHECKSUMS
// and sharded experiment grids meaningful. If one of these hashes
// moves, a "performance" change altered simulation results; that is a
// correctness bug, not a baseline to re-record. (Re-capture is
// legitimate only for a change that *intentionally* alters the modeled
// behavior, and such a change must say so in its own commit.)
//
// The grids run at ScaleLaptop with reduced repetitions so the whole
// test stays under a few seconds; -short skips it.

var seedFingerprints = []struct {
	name string
	grid func() runner.Grid
	want string
}{
	{
		name: "fig14",
		grid: func() runner.Grid { return experiments.Fig14Grid(experiments.ScaleLaptop, 2) },
		want: "8151f1d372508713ae0a49230d8f552c6ecb7985b296cc040f3db475fb71d34a",
	},
	{
		name: "fig15",
		grid: func() runner.Grid { return experiments.Fig15Grid(experiments.ScaleLaptop, 1) },
		want: "b323f3aaa3c4ebe73822ff984013c26ec0c4f051c26e622106fe7b524341bef5",
	},
	{
		name: "fig16",
		grid: func() runner.Grid { return experiments.Fig16Grid(experiments.ScaleLaptop) },
		want: "1752f67f33e9ce7fe6f51813eea07e0510e16dc884e1e7a8947444eb18be899f",
	},
}

func fingerprint(t *testing.T, g runner.Grid) string {
	t.Helper()
	rep, err := runner.Run(context.Background(), g, runner.Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.FailedErr(); err != nil {
		t.Fatal(err)
	}
	ms := make([]runner.Metrics, len(rep.Results))
	for i, r := range rep.Results {
		ms[i] = r.Metrics
	}
	data, err := json.Marshal(ms)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(data))
}

func TestSeedStabilityFingerprints(t *testing.T) {
	if testing.Short() {
		t.Skip("seed-stability fingerprints run the laptop-scale grids; skipped in -short")
	}
	for _, tc := range seedFingerprints {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			if got := fingerprint(t, tc.grid()); got != tc.want {
				t.Errorf("%s fingerprint drifted:\n got  %s\n want %s\n"+
					"an optimization changed simulation results for a fixed seed", tc.name, got, tc.want)
			}
		})
	}
}
