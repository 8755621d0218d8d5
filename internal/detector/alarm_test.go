package detector

import (
	"testing"

	"securityrbsg/internal/schemetest"
	"securityrbsg/internal/stats"
)

// TestFirstAlarmWriteLatency: the detector dates its first alarm to the
// write whose window close raised it — the defender-side detection
// latency the tournament reports as first_alarm_write.
func TestFirstAlarmWriteLatency(t *testing.T) {
	// Share 0.5 over a 256-write window: a pure hammer crosses the
	// threshold at the very first window close, write 256.
	a := adaptive(t, 11, Config{Window: 256, AlarmShare: 0.5})
	m := schemetest.NewTokenMover(a)

	if _, ok := a.FirstAlarmWrite(); ok {
		t.Fatal("alarm dated before any write")
	}
	for i := 0; i < 255; i++ {
		a.NoteWrite(13, m)
	}
	if _, ok := a.FirstAlarmWrite(); ok {
		t.Fatal("alarm fired before the window closed")
	}
	a.NoteWrite(13, m)
	w, ok := a.FirstAlarmWrite()
	if !ok || w != 256 {
		t.Fatalf("FirstAlarmWrite = %d, %v; want 256, true", w, ok)
	}

	// Later alarms must not re-date the first one.
	for i := 0; i < 10000; i++ {
		a.NoteWrite(13, m)
	}
	if w2, ok := a.FirstAlarmWrite(); !ok || w2 != w {
		t.Fatalf("first alarm moved: %d -> %d", w, w2)
	}
	if a.Alarms() == 0 {
		t.Fatal("sustained hammering should keep alarming")
	}
}

// TestFirstAlarmWriteBenign: uniform traffic never dates an alarm, so
// the tournament's first_alarm_write column stays absent for clean runs.
func TestFirstAlarmWriteBenign(t *testing.T) {
	a := adaptive(t, 12, Config{})
	m := schemetest.NewTokenMover(a)
	rng := stats.NewRNG(13)
	for i := 0; i < 50000; i++ {
		a.NoteWrite(rng.Uint64n(256), m)
	}
	if w, ok := a.FirstAlarmWrite(); ok {
		t.Fatalf("benign traffic dated an alarm at write %d", w)
	}
}

// TestFirstAlarmWriteSurvivesFastForward: writes booked a whole epoch at
// a time through Advance count toward the alarm date exactly like demand
// writes through NoteWrite.
func TestFirstAlarmWriteSurvivesFastForward(t *testing.T) {
	cfg := Config{Window: 256, AlarmShare: 0.5}
	slow := adaptive(t, 14, cfg)
	fast := adaptive(t, 14, cfg)
	ms := schemetest.NewTokenMover(slow)
	mf := schemetest.NewTokenMover(fast)

	const total = 2000
	for i := 0; i < total; i++ {
		slow.NoteWrite(13, ms)
	}
	issued := uint64(0)
	for issued < total {
		_, k := fast.Epoch(13)
		if rem := uint64(total) - issued; k > rem {
			k = rem
		}
		fast.Advance(13, k, mf)
		issued += k
	}

	ws, oks := slow.FirstAlarmWrite()
	wf, okf := fast.FirstAlarmWrite()
	if oks != okf || ws != wf {
		t.Fatalf("alarm dates diverged: naive (%d,%v) vs fast-forward (%d,%v)", ws, oks, wf, okf)
	}
	if slow.Alarms() != fast.Alarms() {
		t.Fatalf("alarm counts diverged: %d vs %d", slow.Alarms(), fast.Alarms())
	}
}
