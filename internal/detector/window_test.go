package detector

import (
	"testing"

	"securityrbsg/internal/schemetest"
	"securityrbsg/internal/stats"
)

// recent returns the last n window records of w, oldest first (all held
// records when n exceeds Len).
func recent(w *RateWindow, n int) []WindowStat {
	if n > w.size {
		n = w.size
	}
	if n <= 0 {
		return nil
	}
	out := make([]WindowStat, n)
	start := w.head - n
	if start < 0 {
		start += len(w.ring)
	}
	for i := 0; i < n; i++ {
		out[i] = w.ring[(start+i)%len(w.ring)]
	}
	return out
}

func TestRateWindowValidation(t *testing.T) {
	if _, err := NewRateWindow(0); err == nil {
		t.Fatal("zero capacity must fail")
	}
	if _, err := NewRateWindow(-1); err == nil {
		t.Fatal("negative capacity must fail")
	}
}

func TestRateWindowRingEviction(t *testing.T) {
	w, err := NewRateWindow(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, rate := w.Rate(10); rate != 0 {
		t.Fatal("empty ring must report rate 0")
	}
	for i := uint64(0); i < 10; i++ {
		w.Record(WindowStat{Index: i, Writes: 100, Alarms: i})
	}
	if w.Len() != 4 {
		t.Fatalf("Len() = %d, want capacity 4", w.Len())
	}
	if w.Windows() != 10 {
		t.Fatalf("Windows() = %d, want 10", w.Windows())
	}
	held := recent(w, 10)
	if len(held) != 4 {
		t.Fatalf("recent returned %d entries, want 4", len(held))
	}
	for i, st := range held {
		if want := uint64(6 + i); st.Index != want || st.Alarms != want {
			t.Fatalf("held[%d] = %+v, want index/alarms %d (oldest first)", i, st, want)
		}
	}
	// Last 2 windows: alarms 8+9 over 2 windows, 200 writes.
	alarms, writes, rate := w.Rate(2)
	if alarms != 17 || writes != 200 || rate != 8.5 {
		t.Fatalf("Rate(2) = (%d, %d, %.2f), want (17, 200, 8.50)", alarms, writes, rate)
	}
}

func TestRateWindowPartialFill(t *testing.T) {
	w, err := NewRateWindow(8)
	if err != nil {
		t.Fatal(err)
	}
	w.Record(WindowStat{Writes: 50, Alarms: 1})
	w.Record(WindowStat{Writes: 50, Alarms: 0})
	alarms, writes, rate := w.Rate(8)
	if alarms != 1 || writes != 100 || rate != 0.5 {
		t.Fatalf("Rate(8) = (%d, %d, %.2f), want (1, 100, 0.50)", alarms, writes, rate)
	}
	if got := recent(w, 0); got != nil {
		t.Fatalf("recent(0) = %v, want nil", got)
	}
}

// TestAdaptiveRollingRate is the satellite's acceptance check on the
// wrapped detector: the cumulative counter only ever grows, but the
// rolling rate must rise under a hammer and fall back to zero once the
// traffic turns benign again.
func TestAdaptiveRollingRate(t *testing.T) {
	a := adaptive(t, 8, Config{RateWindows: 8})
	m := schemetest.NewTokenMover(a)

	if _, _, rate := a.mon.RecentAlarmRate(8); rate != 0 {
		t.Fatal("fresh detector reports a nonzero rate")
	}
	for i := 0; i < 20000; i++ {
		a.NoteWrite(13, m)
	}
	alarms, writes, rate := a.mon.RecentAlarmRate(8)
	if rate < 1 {
		t.Fatalf("hammer: rate = %.2f (alarms %d over %d writes), want ≥ 1 crossing/window", rate, alarms, writes)
	}
	cumulative := a.Alarms()

	rng := stats.NewRNG(9)
	for i := 0; i < 40000; i++ {
		a.NoteWrite(rng.Uint64n(256), m)
	}
	if _, _, rate := a.mon.RecentAlarmRate(8); rate != 0 {
		t.Fatalf("benign tail: rolling rate = %.2f, want 0", rate)
	}
	if a.Alarms() != cumulative {
		t.Fatal("benign traffic raised new alarms")
	}
	// The ring retains full windows: every recorded window observed
	// exactly Config.Window writes.
	for _, st := range recent(a.RateWindow(), 8) {
		if st.Writes != a.mon.cfg.Window {
			t.Fatalf("window %d recorded %d writes, want %d", st.Index, st.Writes, a.mon.cfg.Window)
		}
	}
}

// TestAdaptiveRateSustainedUnderAttack pins the signal choice: a
// sustained hammer must keep the per-window crossing count high even
// though fresh alarms stop after the first crossing — otherwise the
// controller would stand down mid-attack.
func TestAdaptiveRateSustainedUnderAttack(t *testing.T) {
	a := adaptive(t, 10, Config{RateWindows: 4})
	m := schemetest.NewTokenMover(a)
	for i := 0; i < 60000; i++ {
		a.NoteWrite(13, m)
	}
	if a.Alarms() != 1 {
		t.Fatalf("fresh alarms = %d, want 1 (cooldown keeps re-upping)", a.Alarms())
	}
	if _, _, rate := a.mon.RecentAlarmRate(4); rate < 1 {
		t.Fatalf("sustained hammer: rolling rate = %.2f, want ≥ 1", rate)
	}
}

func TestMonitorValidation(t *testing.T) {
	if _, err := NewMonitor(0, Config{}); err == nil {
		t.Fatal("zero regions must fail")
	}
	if _, err := NewMonitor(8, Config{RateWindows: -1}); err == nil {
		t.Fatal("negative rate-window capacity must fail")
	}
}

// TestMonitorMirrorsAdaptiveAlarms drives a Monitor and an AdaptiveRBSG
// with the same region sequence and asserts the alarm state machines
// agree write for write — the factored-out observation half must not
// drift from the original.
func TestMonitorMirrorsAdaptiveAlarms(t *testing.T) {
	a := adaptive(t, 11, Config{})
	mon, err := NewMonitor(8, Config{Window: a.mon.cfg.Window, AlarmShare: a.mon.cfg.AlarmShare, Cooldown: a.mon.cfg.Cooldown})
	if err != nil {
		t.Fatal(err)
	}
	mv := schemetest.NewTokenMover(a)
	rng := stats.NewRNG(12)
	for i := 0; i < 60000; i++ {
		la := rng.Uint64n(256)
		if i > 20000 && i < 45000 {
			la = 13 // hammer phase in the middle
		}
		region := a.Intermediate(la) / a.LinesPerRegion()
		mon.Advance(region, 1)
		a.NoteWrite(la, mv)
		if mon.Alarms() != a.Alarms() {
			t.Fatalf("write %d: monitor alarms %d vs adaptive %d", i, mon.Alarms(), a.Alarms())
		}
		for r := uint64(0); r < 8; r++ {
			if mon.Alarmed(r) != a.Alarmed(r) {
				t.Fatalf("write %d: region %d alarm state diverged", i, r)
			}
		}
	}
	if mon.Alarms() == 0 {
		t.Fatal("hammer phase raised no alarms — the comparison proved nothing")
	}
	mw, mok := mon.FirstAlarmWrite()
	aw, aok := a.FirstAlarmWrite()
	if mok != aok || mw != aw {
		t.Fatalf("first-alarm latency diverged: monitor (%d,%v) vs adaptive (%d,%v)", mw, mok, aw, aok)
	}
	ma, _, mr := mon.RecentAlarmRate(4)
	aa, _, ar := a.mon.RecentAlarmRate(4)
	if ma != aa || mr != ar {
		t.Fatalf("rolling rate diverged: monitor (%d, %.2f) vs adaptive (%d, %.2f)", ma, mr, aa, ar)
	}
}

func TestMonitorAlarmedRegions(t *testing.T) {
	mon, err := NewMonitor(4, Config{Window: 100, AlarmShare: 0.5, Cooldown: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Split the window between two regions: both cross the 50% threshold.
	for i := 0; i < 50; i++ {
		mon.Advance(0, 1)
		mon.Advance(1, 1)
	}
	if got := mon.AlarmedRegions(); got != 2 {
		t.Fatalf("AlarmedRegions() = %d, want 2", got)
	}
	if mon.Alarms() != 2 {
		t.Fatalf("Alarms() = %d, want 2", mon.Alarms())
	}
	// Two quiet windows clear the cooldown.
	for i := 0; i < 200; i++ {
		mon.Advance(uint64(i)%4, 1)
	}
	if got := mon.AlarmedRegions(); got != 0 {
		t.Fatalf("AlarmedRegions() = %d after quiet windows, want 0", got)
	}
}

func TestMonitorAdvance(t *testing.T) {
	mon, err := NewMonitor(4, Config{Window: 100, AlarmShare: 0.5, Cooldown: 2})
	if err != nil {
		t.Fatal(err)
	}
	mon.Advance(2, 1)
	if got := mon.WritesToWindowClose(); got != 99 {
		t.Fatalf("WritesToWindowClose() = %d, want 99", got)
	}
	mon.Advance(2, 98)
	if got := mon.WritesToWindowClose(); got != 1 {
		t.Fatalf("after the batch: WritesToWindowClose() = %d, want 1", got)
	}
	// Advancing past the window close must panic (the fast-forward
	// contract: a batch never hides detector-visible state changes).
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Advance past a window close did not panic")
			}
		}()
		mon.Advance(2, 2)
	}()
	mon.Advance(2, 1) // closes the window; 100/100 writes in region 2
	if mon.Alarms() != 1 || !mon.Alarmed(2) {
		t.Fatal("skipped writes did not count toward the alarm share")
	}
	if w, ok := mon.FirstAlarmWrite(); !ok || w != 100 {
		t.Fatalf("FirstAlarmWrite() = (%d, %v), want (100, true)", w, ok)
	}
}
