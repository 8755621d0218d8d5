package lifetime_test

import (
	"testing"

	"securityrbsg/internal/attack"
	"securityrbsg/internal/lifetime"
	"securityrbsg/internal/pcm"
	"securityrbsg/internal/rbsg"
	"securityrbsg/internal/secref"
	"securityrbsg/internal/wear"
)

// TestBPAOnRBSGMatchesExactSim cross-validates the BPA model against the
// real attack at small scale.
func TestBPAOnRBSGMatchesExactSim(t *testing.T) {
	d := lifetime.Device{Lines: 256, Endurance: 3000, Timing: pcm.DefaultTiming}
	p := lifetime.RBSGParams{Regions: 8, Interval: 2}
	model := lifetime.BPAOnRBSG(d, p)

	var sim float64
	const runs = 4
	for seed := uint64(0); seed < runs; seed++ {
		s := rbsg.MustNew(rbsg.Config{Lines: 256, Regions: 8, Interval: 2, Seed: seed})
		c := wear.MustNewController(pcm.Config{
			Endurance: 3000, Timing: pcm.DefaultTiming,
		}, s)
		res := attack.BPA(c, s.LineVulnerabilityFactor(), pcm.Mixed, seed+10, 0)
		if !res.Failed {
			t.Fatal("BPA did not fail")
		}
		sim += float64(res.Writes)
	}
	sim /= runs
	if ratio := model.Writes / sim; ratio < 0.5 || ratio > 2 {
		t.Fatalf("model %v writes vs sim %v (ratio %.2f)", model.Writes, sim, ratio)
	}
}

// TestBPASitsBetweenRTAAndIdeal: at paper scale BPA is far slower than
// RTA but far faster than uniform wear-out — the ordering that motivated
// the paper's security hierarchy.
func TestBPAOrdering(t *testing.T) {
	d := lifetime.PaperDevice()
	p := lifetime.RBSGParams{Regions: 32, Interval: 100}
	bpa := lifetime.BPAOnRBSG(d, p)
	rta := lifetime.RTAOnRBSG(d, p)
	if !(rta.Seconds < bpa.Seconds && bpa.Seconds < d.IdealSeconds()) {
		t.Fatalf("ordering broken: rta=%v bpa=%v ideal=%v",
			rta.Seconds, bpa.Seconds, d.IdealSeconds())
	}
}

// TestFocusedOnMultiWayMatchesExactSim: flooding one consecutive
// sub-region of Multi-Way SR matches the visit-process model.
func TestFocusedOnMultiWayMatchesExactSim(t *testing.T) {
	d := lifetime.Device{Lines: 1 << 10, Endurance: 3000, Timing: pcm.DefaultTiming}
	model := lifetime.FocusedOnMultiWay(d, 8, 4)

	var sim float64
	const runs = 3
	for seed := uint64(0); seed < runs; seed++ {
		s, err := secref.NewMultiWay(1<<10, 8, 4, seed)
		if err != nil {
			t.Fatal(err)
		}
		c := wear.MustNewController(pcm.Config{
			Endurance: 3000, Timing: pcm.DefaultTiming,
		}, s)
		// Flood sub-region 2: hammer each of its lines for one inner
		// round in turn.
		n := uint64(1<<10) / 8
		stint := n * 4
		var writes uint64
		for !c.Bank().Failed() {
			la := 2*n + (writes/stint)%n
			c.Write(la, pcm.Mixed)
			writes++
		}
		pa, _, _ := c.Bank().FirstFailure()
		if pa/n != 2 {
			t.Fatalf("failure at PA %d, outside the flooded sub-region", pa)
		}
		sim += float64(writes)
	}
	sim /= runs
	if ratio := model.Writes / sim; ratio < 0.5 || ratio > 2 {
		t.Fatalf("model %v writes vs sim %v (ratio %.2f)", model.Writes, sim, ratio)
	}
	// The focused attack caps the device at roughly 1/regions of ideal.
	if model.FractionOfIdeal > 0.25 {
		t.Fatalf("focused attack should trap wear in one sub-region: %v", model.FractionOfIdeal)
	}
}
