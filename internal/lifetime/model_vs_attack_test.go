package lifetime_test

import (
	"testing"

	"securityrbsg/internal/attack"
	"securityrbsg/internal/lifetime"
	"securityrbsg/internal/pcm"
	"securityrbsg/internal/rbsg"
	"securityrbsg/internal/wear"
)

// TestRTAOnRBSGModelVsRealAttack cross-validates the Fig 11 cost model
// against the actual timing attack running on the simulator at small
// scale. The model follows the paper's per-bit accounting, which is
// slightly more conservative than our attack implementation (it reads
// every sequence bit in one rotation pass), so the two agree within a
// small factor rather than exactly — and both sit orders of magnitude
// below RAA.
func TestRTAOnRBSGModelVsRealAttack(t *testing.T) {
	const (
		lines     = 256
		regions   = 8
		interval  = 4
		endurance = 500
	)
	d := lifetime.Device{Lines: lines, Endurance: endurance, Timing: pcm.DefaultTiming}
	model := lifetime.RTAOnRBSG(d, lifetime.RBSGParams{Regions: regions, Interval: interval})

	s := rbsg.MustNew(rbsg.Config{Lines: lines, Regions: regions, Interval: interval, Seed: 5})
	c := wear.MustNewController(pcm.Config{
		Endurance: endurance, Timing: pcm.DefaultTiming,
	}, s)
	a := &attack.RTARBSG{
		Target: c, Lines: lines, Regions: regions, Interval: interval,
		Li: 17, SeqLen: 8,
		Oracle: func() bool { return c.Bank().Failed() },
	}
	res, err := a.Run()
	if err != nil || !res.Failed {
		t.Fatalf("attack failed: %v", err)
	}

	ratio := model.Writes / float64(res.Writes)
	if ratio < 0.3 || ratio > 3 {
		t.Fatalf("model %v writes vs real attack %v (ratio %.2f)", model.Writes, res.Writes, ratio)
	}

	raa := lifetime.RAAOnRBSG(d, lifetime.RBSGParams{Regions: regions, Interval: interval})
	if model.Writes >= raa.Writes || float64(res.Writes) >= raa.Writes {
		t.Fatal("RTA must be far cheaper than RAA in both model and reality")
	}
	t.Logf("model %.0f writes, real attack %d writes (ratio %.2f); RAA model %.0f",
		model.Writes, res.Writes, ratio, raa.Writes)
}
