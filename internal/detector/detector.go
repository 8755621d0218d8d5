// Package detector implements an online attack detector in the spirit of
// Qureshi et al., HPCA'11 ("Practical and secure PCM systems by online
// detection of malicious write streams"), which the paper cites as the
// standard countermeasure to RAA/BPA — and whose interaction with the
// Remapping Timing Attack the paper turns on its head: "increasing the
// rate of wear leveling instead accelerates RTA" (Section III-B).
//
// The detector watches the share of write traffic each RBSG region
// receives over a sliding window. Ordinary (even randomized) traffic
// spreads across regions; a hammering adversary concentrates on one.
// When a region's share crosses the alarm threshold the detector boosts
// that region's wear-leveling rate by issuing extra gap movements — an
// effective remapping interval of ψ/boost — and decays back to normal
// when the traffic does.
//
// The package exists to reproduce the paper's argument quantitatively:
// the boost helps against BPA (it shrinks the Line Vulnerability Factor)
// but *shortens* lifetime under RTA, whose detection phase gets one
// address bit per region rotation and therefore finishes sooner the
// faster the region spins.
package detector

import (
	"fmt"

	"securityrbsg/internal/rbsg"
	"securityrbsg/internal/wear"
)

// Config tunes the detector.
type Config struct {
	// Window is the number of writes per observation window.
	Window uint64
	// AlarmShare is the per-region traffic share that raises the alarm.
	// With R regions, benign uniform traffic gives ≈1/R; the paper-style
	// default is 8× that.
	AlarmShare float64
	// Boost multiplies the remapping rate of an alarmed region (extra
	// movements per interval). Default 4.
	Boost uint64
	// Cooldown is the number of clean windows before an alarm clears.
	Cooldown int
	// RateWindows is how many closed windows the rolling alarm-rate ring
	// retains for RecentAlarmRate (default DefaultRateWindows).
	RateWindows int
}

func (c *Config) normalize(regions uint64) {
	if c.Window == 0 {
		c.Window = 64 * regions
	}
	if c.AlarmShare == 0 {
		c.AlarmShare = 8.0 / float64(regions)
		if c.AlarmShare > 0.5 {
			c.AlarmShare = 0.5 // small region counts: cap below certainty
		}
	}
	if c.Boost == 0 {
		c.Boost = 4
	}
	if c.Cooldown == 0 {
		c.Cooldown = 2
	}
	if c.RateWindows == 0 {
		c.RateWindows = DefaultRateWindows
	}
}

// AdaptiveRBSG wraps an RBSG scheme with the online detector: a Monitor
// watching its region traffic, and the boost response. It implements
// wear.Scheme and wear.FastForwarder; the wrapped scheme must not be
// driven directly while wrapped.
type AdaptiveRBSG struct {
	*rbsg.Scheme
	mon      *Monitor
	boosted  uint64 // extra movements issued
	interval uint64
}

// NewAdaptiveRBSG wraps scheme with a detector configured by cfg.
func NewAdaptiveRBSG(scheme *rbsg.Scheme, cfg Config) (*AdaptiveRBSG, error) {
	if scheme == nil {
		return nil, fmt.Errorf("detector: nil scheme")
	}
	mon, err := NewMonitor(scheme.Config().Regions, cfg)
	if err != nil {
		return nil, err
	}
	return &AdaptiveRBSG{Scheme: scheme, mon: mon, interval: scheme.Config().Interval}, nil
}

// Name identifies the wrapped scheme.
func (a *AdaptiveRBSG) Name() string { return "rbsg+detector" }

// Alarms returns how many times a region crossed the alarm threshold.
func (a *AdaptiveRBSG) Alarms() uint64 { return a.mon.Alarms() }

// BoostedMovements returns the extra gap movements the detector issued.
func (a *AdaptiveRBSG) BoostedMovements() uint64 { return a.boosted }

// Alarmed reports whether region r is currently under alarm.
func (a *AdaptiveRBSG) Alarmed(r uint64) bool { return a.mon.Alarmed(r) }

// FirstAlarmWrite returns the index (in demand writes since boot) of the
// write whose window close raised the detector's first alarm — the
// defender-side detection latency. ok is false while no alarm has fired.
func (a *AdaptiveRBSG) FirstAlarmWrite() (write uint64, ok bool) { return a.mon.FirstAlarmWrite() }

// RateWindow returns the rolling per-window statistics ring — the
// control loop's input signal. The returned ring is live; callers must
// not mutate it.
func (a *AdaptiveRBSG) RateWindow() *RateWindow { return a.mon.RateWindow() }

// NoteWrite books the write, runs the base scheme's wear leveling, and —
// for alarmed regions — issues Boost−1 additional gap movements per
// interval, multiplying the region's remapping rate.
func (a *AdaptiveRBSG) NoteWrite(la uint64, m wear.Mover) uint64 { return a.Advance(la, 1, m) }

// Epoch overrides the embedded scheme's so batched write runs
// (wear.Controller.WriteRun) stay bit-identical with the detector in the
// loop: the RBSG epoch shrinks to the next write that could change
// detector-visible state — a window close (which may flip alarms) or, in
// an alarmed region, a boost fire.
func (a *AdaptiveRBSG) Epoch(la uint64) (pa, k uint64) {
	pa, k = a.Scheme.Epoch(la)
	k = min(k, a.mon.WritesToWindowClose())
	if b := a.writesToBoost(a.Intermediate(la) / a.LinesPerRegion()); b > 0 {
		k = min(k, b)
	}
	return pa, k
}

// Advance books k writes to la (k ≤ Epoch(la)'s k) against the embedded
// scheme and the monitor, boosting the region when the k-th write
// completes an interval of an alarmed region. The boost reads the
// region's alarm state from before the window can close and its
// in-window count after these writes, so it is decided before the
// monitor books them.
func (a *AdaptiveRBSG) Advance(la, k uint64, m wear.Mover) uint64 {
	region := a.Intermediate(la) / a.LinesPerRegion()
	b := a.writesToBoost(region)
	if b > 0 && k > b {
		panic(fmt.Errorf("detector: Advance(%d) would run past a boost (%d writes remain)", k, b))
	}
	ns := a.Scheme.Advance(la, k, m)
	if b > 0 && k == b {
		for i := uint64(1); i < a.mon.cfg.Boost; i++ {
			ns += a.Region(int(region)).MoveGap(m)
			a.boosted++
		}
	}
	a.mon.Advance(region, k)
	return ns
}

// writesToBoost returns how many writes to region r remain until the
// one that fires its boost (the one completing an interval of the
// window's writes to r), or 0 while r is not under alarm.
func (a *AdaptiveRBSG) writesToBoost(r uint64) uint64 {
	if !a.mon.Alarmed(r) {
		return 0
	}
	return a.interval - a.mon.perRgn[r]%a.interval
}
