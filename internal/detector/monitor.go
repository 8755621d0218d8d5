package detector

import "fmt"

// Monitor is the detector's observation half: a scheme-agnostic
// per-region write-share watcher with the window/threshold/cooldown
// semantics and no response of its own. AdaptiveRBSG holds one and
// reacts to its alarms by boosting the alarmed region's remapping rate —
// the HPCA'11 response the paper shows *backfires* under RTA; the
// adaptive security-level wrapper (internal/seclevel) instead feeds a
// Monitor's rolling alarm rate to a controller that raises the DFN stage
// count at the next remap-round boundary.
//
// The caller routes each demand write's region in via Advance. Like the
// rest of the simulation stack a Monitor is single-writer and fully
// deterministic: identical observation sequences produce identical
// alarm sequences.
type Monitor struct {
	cfg Config

	window     uint64   // writes in the current window
	perRgn     []uint64 // per-region writes in the current window
	alarmed    []int    // remaining cooldown windows per region (0 = clear)
	alarms     uint64   // fresh alarms raised
	seen       uint64   // writes observed since boot
	firstAlarm uint64   // seen-count at the first alarm
	alarmSeen  bool     // firstAlarm is valid
	rate       *RateWindow
}

// NewMonitor builds a monitor over `regions` traffic classes, with zero
// fields of cfg taking their defaults (Boost is AdaptiveRBSG's response
// and unused here).
func NewMonitor(regions uint64, cfg Config) (*Monitor, error) {
	if regions == 0 {
		return nil, fmt.Errorf("detector: monitor needs at least one region")
	}
	cfg.normalize(regions)
	rate, err := NewRateWindow(cfg.RateWindows)
	if err != nil {
		return nil, err
	}
	return &Monitor{
		cfg:     cfg,
		perRgn:  make([]uint64, regions),
		alarmed: make([]int, regions),
		rate:    rate,
	}, nil
}

// Config returns the normalized configuration.
func (m *Monitor) Config() Config { return m.cfg }

// Advance books k demand writes routed to region r (1 ≤ k ≤
// WritesToWindowClose), closing the observation window when the k-th
// fills it. It panics when k would run past the window close, so a batch
// never hides a close — and with it an alarm — inside itself.
func (m *Monitor) Advance(r, k uint64) {
	if left := m.WritesToWindowClose(); k > left {
		panic(fmt.Errorf("detector: Advance(%d) would run past a window close (%d writes remain)", k, left))
	}
	m.perRgn[r] += k
	m.window += k
	m.seen += k
	if m.window == m.cfg.Window {
		m.closeWindow()
	}
}

// WritesToWindowClose returns how many more writes the current window
// accepts; the last of them closes it — the monitor's contribution to a
// fast-forward epoch (cf. wear.FastForwarder).
func (m *Monitor) WritesToWindowClose() uint64 { return m.cfg.Window - m.window }

// Alarms returns how many times a quiet region crossed the alarm
// threshold (fresh alarms).
func (m *Monitor) Alarms() uint64 { return m.alarms }

// Alarmed reports whether region r is currently under alarm.
func (m *Monitor) Alarmed(r uint64) bool { return m.alarmed[r] > 0 }

// AlarmedRegions counts the regions currently under alarm.
func (m *Monitor) AlarmedRegions() uint64 {
	var n uint64
	for _, c := range m.alarmed {
		if c > 0 {
			n++
		}
	}
	return n
}

// FirstAlarmWrite returns the observation index whose window close
// raised the first alarm; ok is false while no alarm has fired.
func (m *Monitor) FirstAlarmWrite() (write uint64, ok bool) {
	return m.firstAlarm, m.alarmSeen
}

// RateWindow returns the rolling per-window statistics ring. The
// returned ring is live; callers must not mutate it.
func (m *Monitor) RateWindow() *RateWindow { return m.rate }

// RecentAlarmRate aggregates the last n closed windows: threshold
// crossings, writes observed, and crossings per window.
func (m *Monitor) RecentAlarmRate(n int) (alarms, writes uint64, rate float64) {
	return m.rate.Rate(n)
}

// closeWindow evaluates the alarm condition, records the window into
// the rolling ring, and resets the counters.
func (m *Monitor) closeWindow() {
	limit := uint64(m.cfg.AlarmShare * float64(m.cfg.Window))
	var over uint64
	for r := range m.perRgn {
		if m.perRgn[r] >= limit {
			over++
			if m.alarmed[r] == 0 {
				m.alarms++
				if !m.alarmSeen {
					m.firstAlarm = m.seen
					m.alarmSeen = true
				}
			}
			m.alarmed[r] = m.cfg.Cooldown
		} else if m.alarmed[r] > 0 {
			m.alarmed[r]--
		}
		m.perRgn[r] = 0
	}
	m.rate.Record(WindowStat{Index: m.rate.Windows(), Writes: m.window, Alarms: over})
	m.window = 0
}
