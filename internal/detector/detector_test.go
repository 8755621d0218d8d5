package detector

import (
	"testing"

	"securityrbsg/internal/attack"
	"securityrbsg/internal/pcm"
	"securityrbsg/internal/rbsg"
	"securityrbsg/internal/schemetest"
	"securityrbsg/internal/stats"
	"securityrbsg/internal/wear"
)

func base(seed uint64) *rbsg.Scheme {
	return rbsg.MustNew(rbsg.Config{Lines: 256, Regions: 8, Interval: 8, Seed: seed})
}

func adaptive(t *testing.T, seed uint64, cfg Config) *AdaptiveRBSG {
	t.Helper()
	a, err := NewAdaptiveRBSG(base(seed), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestValidation(t *testing.T) {
	if _, err := NewAdaptiveRBSG(nil, Config{}); err == nil {
		t.Fatal("nil scheme must fail")
	}
}

func TestBenignTrafficRaisesNoAlarm(t *testing.T) {
	a := adaptive(t, 1, Config{})
	m := schemetest.NewTokenMover(a)
	rng := stats.NewRNG(2)
	for i := 0; i < 50000; i++ {
		a.NoteWrite(rng.Uint64n(256), m)
	}
	if a.Alarms() != 0 {
		t.Fatalf("uniform traffic raised %d alarms", a.Alarms())
	}
	if a.BoostedMovements() != 0 {
		t.Fatal("no boost without alarm")
	}
}

func TestHammerRaisesAlarmAndBoosts(t *testing.T) {
	a := adaptive(t, 3, Config{})
	m := schemetest.NewTokenMover(a)
	for i := 0; i < 50000; i++ {
		a.NoteWrite(13, m)
	}
	if a.Alarms() == 0 {
		t.Fatal("hammering never raised an alarm")
	}
	if a.BoostedMovements() == 0 {
		t.Fatal("alarm never boosted the remapping rate")
	}
	region := a.Intermediate(13) / a.LinesPerRegion()
	if !a.Alarmed(region) {
		t.Fatal("the hammered region should be under alarm")
	}
	if err := schemetest.Verify(a, m); err != nil {
		t.Fatal(err)
	}
}

func TestAlarmCoolsDown(t *testing.T) {
	a := adaptive(t, 4, Config{Cooldown: 2})
	m := schemetest.NewTokenMover(a)
	for i := 0; i < 20000; i++ {
		a.NoteWrite(13, m)
	}
	region := a.Intermediate(13) / a.LinesPerRegion()
	if !a.Alarmed(region) {
		t.Fatal("should be alarmed while hammered")
	}
	rng := stats.NewRNG(5)
	for i := 0; i < 20000; i++ {
		a.NoteWrite(rng.Uint64n(256), m)
	}
	if a.Alarmed(region) {
		t.Fatal("alarm should clear after benign windows")
	}
}

func TestDataIntegrityUnderBoost(t *testing.T) {
	a := adaptive(t, 6, Config{Boost: 8})
	if _, err := schemetest.ExerciseHammer(a, 13, 30000, 11); err != nil {
		t.Fatal(err)
	}
}

// TestDetectorShrinksLVFUnderBPA reproduces the HPCA'11 rationale: the
// boost shrinks the Line Vulnerability Factor, so a Birthday Paradox
// attacker needs more trials to kill a line.
func TestDetectorShrinksLVFUnderBPA(t *testing.T) {
	const endurance = 3000
	bankCfg := pcm.Config{Endurance: endurance, Timing: pcm.DefaultTiming}

	plain := wear.MustNewController(bankCfg, base(7))
	plainRes := attack.BPA(plain, base(7).LineVulnerabilityFactor(), pcm.Mixed, 1, 80_000_000)

	// Window shorter than one hammer stint so the concentration is
	// visible within a window.
	det, err := NewAdaptiveRBSG(base(7), Config{Window: 256, AlarmShare: 0.6, Boost: 8})
	if err != nil {
		t.Fatal(err)
	}
	detCtrl := wear.MustNewController(bankCfg, det)
	detRes := attack.BPA(detCtrl, base(7).LineVulnerabilityFactor(), pcm.Mixed, 1, 80_000_000)

	if !plainRes.Failed {
		t.Fatal("BPA should kill plain RBSG in this budget")
	}
	if det.Alarms() == 0 {
		t.Fatal("the detector never noticed the attack")
	}
	if detRes.Failed && float64(detRes.Writes) < 1.3*float64(plainRes.Writes) {
		t.Fatalf("detector barely helped BPA: %d vs %d writes", detRes.Writes, plainRes.Writes)
	}
	t.Logf("BPA writes to failure: plain %d, with detector %v (failed=%v, %d alarms)",
		plainRes.Writes, detRes.Writes, detRes.Failed, det.Alarms())
}

// TestBoostAcceleratesRegionRotation verifies the mechanism behind the
// paper's Section III-B claim that the countermeasure backfires against
// RTA: under alarm the hammered region rotates Boost× faster, which is
// exactly the rate at which RTA harvests address bits.
func TestBoostAcceleratesRegionRotation(t *testing.T) {
	count := func(boost uint64) uint64 {
		a, err := NewAdaptiveRBSG(base(8), Config{Boost: boost})
		if err != nil {
			t.Fatal(err)
		}
		m := schemetest.NewTokenMover(a)
		for i := 0; i < 30000; i++ {
			a.NoteWrite(13, m)
		}
		region := a.Intermediate(13) / a.LinesPerRegion()
		return a.Region(int(region)).Movements()
	}
	plain, boosted := count(1), count(8)
	if boosted < 4*plain {
		t.Fatalf("boost barely changed rotation: %d vs %d movements", plain, boosted)
	}
	t.Logf("movements under hammer: plain %d, boosted %d (%.1fx)",
		plain, boosted, float64(boosted)/float64(plain))
}
