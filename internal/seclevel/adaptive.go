package seclevel

import (
	"fmt"

	"securityrbsg/internal/core"
	"securityrbsg/internal/detector"
	"securityrbsg/internal/wear"
)

// AdaptiveConfig assembles the closed loop: the base Security RBSG
// geometry, the detector monitor watching its region traffic, and the
// level controller acting on the monitor's rolling alarm rate.
type AdaptiveConfig struct {
	// Scheme is the base Security RBSG configuration. Migration must be
	// MigrationSwap (the default): MigrationMove parks a line in the
	// outer spare mid-cycle, whose intermediate address lies outside
	// every region — the monitor would have no traffic class for it.
	Scheme core.Config
	// Detector tunes the per-region write-share monitor (regions taken
	// from Scheme.Regions; zero fields take detector defaults).
	Detector detector.Config
	// Level tunes the controller (zero fields take seclevel defaults;
	// InitialLevel is forced to Scheme.Stages so controller and scheme
	// agree at boot).
	Level Config
}

// Adaptive is Security RBSG with the adaptive security level wired in:
// a wear.Scheme whose DFN stage count follows the detector-driven
// controller, transitions applied only at remap-round boundaries via
// core.Scheme.SetStages. It implements wear.FastForwarder (so the exact
// tier's batched runs stay bit-identical with the loop closed) and
// registry.AlarmReporter.
type Adaptive struct {
	*core.Scheme
	mon *detector.Monitor
	ctl *Controller

	seen           uint64 // demand writes since boot
	firstRaise     uint64 // seen-count at the first escalation
	firstRaiseSeen bool
}

// NewAdaptive builds the closed loop over a fresh Security RBSG
// instance.
func NewAdaptive(cfg AdaptiveConfig) (*Adaptive, error) {
	if cfg.Scheme.Migration != core.MigrationSwap {
		return nil, fmt.Errorf("seclevel: adaptive level requires MigrationSwap (got %s)", cfg.Scheme.Migration)
	}
	base, err := core.New(cfg.Scheme)
	if err != nil {
		return nil, err
	}
	mon, err := detector.NewMonitor(cfg.Scheme.Regions, cfg.Detector)
	if err != nil {
		return nil, err
	}
	lvl := cfg.Level
	lvl.normalize()
	lvl.InitialLevel = cfg.Scheme.Stages
	if lvl.MinLevel > cfg.Scheme.Stages {
		lvl.MinLevel = cfg.Scheme.Stages
	}
	if lvl.MaxLevel < cfg.Scheme.Stages {
		lvl.MaxLevel = cfg.Scheme.Stages
	}
	ctl, err := New(lvl)
	if err != nil {
		return nil, err
	}
	return &Adaptive{Scheme: base, mon: mon, ctl: ctl}, nil
}

// Name identifies the scheme.
func (a *Adaptive) Name() string { return "srbsg-adaptive" }

// Controller returns the level controller (for telemetry and the
// OnApply event hook; single-writer with the scheme).
func (a *Adaptive) Controller() *Controller { return a.ctl }

// Monitor returns the detector monitor feeding the controller.
func (a *Adaptive) Monitor() *detector.Monitor { return a.mon }

// Level returns the stage count currently in effect — the live
// security level.
func (a *Adaptive) Level() int { return a.Scheme.Stages() }

// FirstAlarmWrite implements registry.AlarmReporter with the monitor's
// first threshold crossing.
func (a *Adaptive) FirstAlarmWrite() (write uint64, ok bool) {
	return a.mon.FirstAlarmWrite()
}

// FirstRaiseWrite returns the index (in demand writes since boot) of
// the write whose round boundary applied the first escalation — the
// closed-loop reaction latency the escalation-before-recovery proof
// compares against the RTA's mapping-recovery cost.
func (a *Adaptive) FirstRaiseWrite() (write uint64, ok bool) {
	return a.firstRaise, a.firstRaiseSeen
}

// NoteWrite books the write with the monitor, runs the base scheme's
// wear leveling, and — when this write completed a remapping round —
// consults the controller at the boundary. An applied decision lands as
// a deferred SetStages, which the base scheme picks up at the next key
// redraw: the level never changes mid-round.
func (a *Adaptive) NoteWrite(la uint64, m wear.Mover) uint64 { return a.Advance(la, 1, m) }

// Epoch implements wear.FastForwarder: the base scheme's epoch shrunk to
// the monitor's next window close, so a batch never runs past a write
// that could change the detector signal (and round completions — which
// the controller must observe — are always an epoch's last write).
//
//rbsglint:hotpath
func (a *Adaptive) Epoch(la uint64) (pa, k uint64) {
	pa, k = a.Scheme.Epoch(la)
	return pa, min(k, a.mon.WritesToWindowClose())
}

// Advance implements wear.FastForwarder: book k writes to la (k ≤
// Epoch(la)'s k) with the monitor and then the base scheme, and consult
// the controller when the k-th write completed a remapping round. The
// promoted core.Scheme.Advance would bypass both.
func (a *Adaptive) Advance(la, k uint64, m wear.Mover) uint64 {
	a.mon.Advance(a.Intermediate(la)/a.LinesPerRegion(), k)
	a.seen += k
	rounds := a.Scheme.Rounds()
	ns := a.Scheme.Advance(la, k, m)
	if a.Scheme.Rounds() != rounds {
		a.onBoundary()
	}
	return ns
}

// onBoundary feeds the rolling detector signal to the controller and
// actuates its decision. SetStages only records the new level: the
// scheme applies it at the key redraw that opens the next round, so no
// caller can change the level mid-round.
func (a *Adaptive) onBoundary() {
	hist := a.ctl.Config().HistoryWindows
	alarms, _, rate := a.mon.RecentAlarmRate(hist)
	windows := a.mon.RateWindow().Len()
	if windows > hist {
		windows = hist
	}
	obs := Observation{
		Round: a.Scheme.Rounds(), Level: a.Scheme.Stages(),
		Alarms: alarms, Windows: windows, Rate: rate,
	}
	target, changed := a.ctl.OnRoundBoundary(obs)
	if !changed {
		return
	}
	if err := a.Scheme.SetStages(target); err != nil {
		//rbsglint:allow panicpolicy -- unreachable: the controller clamps target to [MinLevel, MaxLevel] with MinLevel ≥ 1, validated at construction
		panic(err)
	}
	if target > obs.Level && !a.firstRaiseSeen {
		a.firstRaise = a.seen
		a.firstRaiseSeen = true
	}
}
