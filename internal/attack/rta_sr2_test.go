package attack

import (
	"testing"

	"securityrbsg/internal/pcm"
	"securityrbsg/internal/secref"
	"securityrbsg/internal/wear"
)

// outerSpy records the outer level's key difference per outer round,
// giving the test ground truth to compare the attacker's recovered bits
// against. (The attacker never sees it.)
type outerSpy struct {
	c  *wear.Controller
	s  *secref.TwoLevel
	ds []uint64 // ds[r] is round r's keyc XOR keyp, rounds counted from 0
}

func (sp *outerSpy) observe() {
	o := sp.s.Outer()
	if o.CRP() == o.LogicalLines() {
		return // round complete, the next one not keyed yet
	}
	r := o.Rounds()
	for uint64(len(sp.ds)) <= r {
		sp.ds = append(sp.ds, 0)
	}
	kc, kp := o.Keys()
	sp.ds[r] = kc ^ kp
}

func (sp *outerSpy) Write(la uint64, content pcm.Content) uint64 {
	ns := sp.c.Write(la, content)
	sp.observe()
	return ns
}

func (sp *outerSpy) Read(la uint64) (pcm.Content, uint64) {
	return sp.c.Read(la)
}

// TestRTATwoLevelSRExact runs the oracle-free two-level attack end to
// end: every per-round high key-difference recovered from latencies must
// match the spied truth, and the flood must kill a line inside the
// sub-region it pinned, far faster than blind hammering.
func TestRTATwoLevelSRExact(t *testing.T) {
	const (
		lines     = 1024
		regions   = 8
		inner     = 4
		outer     = 8
		endurance = 6000
	)
	cfg := secref.TwoLevelConfig{
		Lines: lines, Regions: regions,
		InnerInterval: inner, OuterInterval: outer, Seed: 12,
	}
	s := secref.MustNewTwoLevel(cfg)
	c := wear.MustNewController(bankCfg(endurance), s)
	spy := &outerSpy{c: c, s: s}
	// The flood starts on logical group 0, so the sub-region LA 0 maps
	// into at boot is the one the attack pins.
	n := uint64(lines / regions)
	pinned := s.Intermediate(0) / n
	a := &RTATwoLevelSRExact{
		Target: spy,
		Lines:  lines, Regions: regions,
		InnerInterval: inner, OuterInterval: outer,
		Oracle: func() bool { return c.Bank().Failed() },
	}
	res, err := a.Run()
	if err != nil {
		t.Fatalf("attack error: %v", err)
	}
	if !res.Failed {
		t.Fatal("attack did not fail the device")
	}
	if pa, _, _ := c.Bank().FirstFailure(); pa/n != pinned {
		t.Fatalf("failed PA %d is in sub-region %d, outside pinned sub-region %d", pa, pa/n, pinned)
	}
	if len(a.RecoveredHighDs) == 0 {
		t.Fatal("no key bits recovered")
	}

	// Ground truth by round: a skipped or lost round costs only itself.
	lowBits := uint(0)
	for v := n; v > 1; v >>= 1 {
		lowBits++
	}
	wrong := 0
	for _, got := range a.RecoveredHighDs {
		if got.D == ^uint64(0) {
			continue // the attack marked this round as lost; skip
		}
		if got.Round >= uint64(len(spy.ds)) {
			t.Fatalf("round %d recovered, but the spy saw only %d rounds", got.Round, len(spy.ds))
		}
		if want := spy.ds[got.Round] >> lowBits; got.D != want {
			wrong++
			t.Logf("round %d: recovered %#x, truth %#x", got.Round, got.D, want)
		}
	}
	if wrong > len(a.RecoveredHighDs)/10 {
		t.Fatalf("%d/%d rounds misrecovered the key bits", wrong, len(a.RecoveredHighDs))
	}

	// Comparison: blind RAA on a fresh instance with the same budget.
	s2 := secref.MustNewTwoLevel(cfg)
	c2 := wear.MustNewController(bankCfg(endurance), s2)
	raa := RAA(c2, 5, pcm.Mixed, res.Writes*2)
	if raa.Failed && raa.Writes <= res.Writes {
		t.Fatalf("blind RAA (%d writes) beat the exact timing attack (%d writes)",
			raa.Writes, res.Writes)
	}
	t.Logf("exact attack: %d writes over %d rounds (detect %d, flood %d), %d/%d rounds exact; RAA alive after %d writes",
		res.Writes, a.Rounds, a.DetectWrites, a.WearWrites,
		len(a.RecoveredHighDs)-wrong, len(a.RecoveredHighDs), raa.Writes)
}

// TestRTATwoLevelSRExactValidation exercises the config checks.
func TestRTATwoLevelSRExactValidation(t *testing.T) {
	bad := []RTATwoLevelSRExact{
		{Lines: 100, Regions: 4, InnerInterval: 1, OuterInterval: 1},
		{Lines: 128, Regions: 3, InnerInterval: 1, OuterInterval: 1},
		{Lines: 128, Regions: 4, InnerInterval: 0, OuterInterval: 1},
		{Lines: 128, Regions: 4, InnerInterval: 1, OuterInterval: 0},
	}
	for i := range bad {
		if _, err := bad[i].Run(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}
