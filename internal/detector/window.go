package detector

import "fmt"

// Rolling alarm-rate windows.
//
// The cumulative Alarms() counter answers "has this bank ever been
// attacked"; a control loop needs "is it being attacked *now*". The
// detector therefore records one WindowStat per closed observation
// window into a fixed-capacity ring, and the adaptive security-level
// controller (internal/seclevel) reads the alarm rate over the last N
// windows as its input signal. Crucially the per-window count is the
// number of regions at or above the alarm threshold in that window —
// not just freshly raised alarms — so a sustained hammer keeps the rate
// high for as long as it lasts instead of going quiet after the first
// crossing.

// WindowStat summarizes one closed observation window.
type WindowStat struct {
	// Index is the window's 0-based sequence number since boot.
	Index uint64
	// Writes is the number of demand writes the window observed.
	Writes uint64
	// Alarms counts the regions at or above the alarm threshold when the
	// window closed (fresh crossings and sustained alarms alike).
	Alarms uint64
}

// RateWindow is a fixed-capacity ring of per-window statistics, oldest
// entries evicted first. The zero value is not usable; construct with
// NewRateWindow.
type RateWindow struct {
	ring  []WindowStat
	size  int // valid entries, ≤ cap
	head  int // slot the next Record writes
	total uint64
}

// DefaultRateWindows is the ring capacity used when a Config leaves
// RateWindows zero: enough history for a controller smoothing over a
// handful of remap rounds, small enough to be free per bank.
const DefaultRateWindows = 32

// NewRateWindow returns a ring holding the most recent `capacity`
// window records.
func NewRateWindow(capacity int) (*RateWindow, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("detector: rate window capacity must be positive, got %d", capacity)
	}
	return &RateWindow{ring: make([]WindowStat, capacity)}, nil
}

// Record appends one closed window's statistics, evicting the oldest
// entry when the ring is full.
func (w *RateWindow) Record(st WindowStat) {
	w.ring[w.head] = st
	w.head = (w.head + 1) % len(w.ring)
	if w.size < len(w.ring) {
		w.size++
	}
	w.total++
}

// Len returns the number of windows currently held (≤ capacity).
func (w *RateWindow) Len() int { return w.size }

// Windows returns the total number of windows ever recorded.
func (w *RateWindow) Windows() uint64 { return w.total }

// Rate aggregates the last n windows (all held windows when n exceeds
// Len): total threshold crossings, total writes observed, and the alarm
// rate in crossings per window. A rate of 0 means quiet; ≥ 1 means at
// least one region was over threshold in every recent window. It sums
// the ring in place: the adaptive level controller calls it at every
// remap round.
func (w *RateWindow) Rate(n int) (alarms, writes uint64, rate float64) {
	n = min(n, w.size)
	if n <= 0 {
		return 0, 0, 0
	}
	for i := w.head - n; i < w.head; i++ {
		st := w.ring[(i+len(w.ring))%len(w.ring)]
		alarms += st.Alarms
		writes += st.Writes
	}
	return alarms, writes, float64(alarms) / float64(n)
}
