// Package seclevel closes the loop the paper only sketches: a
// detector-driven controller that tunes Security RBSG's adjustable
// security level — the DFN stage count — live, per bank.
//
// The input signal is the rolling alarm rate of a detector.Monitor
// (threshold crossings per observation window over the last few
// windows); the actuator is core.Scheme.SetStages, which defers the
// change to the next remap-round boundary — the key redraw — because
// that is the only instant at which no address translates through a
// half-retired permutation pair. The controller therefore also decides
// only at round boundaries: raise the level when the recent alarm rate
// crosses the raise threshold, lower it when traffic has been quiet,
// with hysteresis between the two thresholds, a cooldown in rounds
// after every transition, and hard min/max clamps.
//
// Everything is deterministic: identical observation sequences produce
// identical decision sequences, and the bounded decision trace replays
// bit-identically under seeded inputs — the property the twin tests and
// the worker-count-invariance tests pin. PRAC's "When Mitigations
// Backfire" (arXiv:2505.10111) is the cautionary tale the design
// answers: an adaptive defense whose reactions leak through timing
// becomes an oracle itself, so level changes ride the pre-existing
// remap-round key redraw (whose latency signature the wire-level RTA
// regression already bounds) instead of adding any new observable
// event.
package seclevel

import (
	"fmt"
	"strings"
)

// Observation is the controller's per-round-boundary input: the rolling
// detector signal plus the scheme state it may act on.
type Observation struct {
	// Round is the number of completed remapping rounds.
	Round uint64
	// Level is the stage count the scheme currently runs.
	Level int
	// Alarms is the number of threshold crossings over the aggregated
	// detector windows (detector.RateWindow.Rate).
	Alarms uint64
	// Windows is how many closed detector windows the signal aggregates
	// (0 = no signal yet; policies hold).
	Windows int
	// Rate is crossings per window over those windows.
	Rate float64
}

// Policy maps an observation to a desired security level. The
// controller clamps the result to [MinLevel, MaxLevel] and enforces the
// cooldown; policies only encode the direction-and-step logic.
type Policy interface {
	// Name identifies the policy in flags, metrics and traces.
	Name() string
	// Target returns the desired stage count (possibly out of clamp
	// range; returning obs.Level means hold).
	Target(obs Observation) int
}

// Config tunes a Controller. Zero fields take the documented defaults
// (matching the Config convention of internal/detector).
type Config struct {
	// Policy names the decision policy: "hysteresis" (default),
	// "aggressive" or "static". See NewPolicy.
	Policy string
	// InitialLevel is the level the controller starts at (default
	// MinLevel). The Adaptive wrapper overrides it with the scheme's
	// construction stage count.
	InitialLevel int
	// MinLevel / MaxLevel clamp every decision (defaults 3 and 11).
	MinLevel int
	MaxLevel int
	// RaiseRate is the alarm rate (crossings per window) at or above
	// which the hysteresis policy escalates (default 0.5).
	RaiseRate float64
	// LowerRate is the alarm rate at or below which the hysteresis
	// policy steps down (default 0 — lower only when fully quiet). Must
	// stay below RaiseRate; the gap between the two is the hysteresis
	// band.
	LowerRate float64
	// Step is how many stages a raise jumps at once (default 2). Lowers
	// always step down by one: escalate fast, relax slowly.
	Step int
	// CooldownRounds is how many remap rounds must pass after a
	// transition before the next one (default 2).
	CooldownRounds uint64
	// HistoryWindows is how many closed detector windows the input
	// signal aggregates (default 8).
	HistoryWindows int
	// TraceDepth bounds the retained decision trace (default 64; older
	// decisions are dropped and counted, never silently).
	TraceDepth int
}

func (c *Config) normalize() {
	if c.Policy == "" {
		c.Policy = "hysteresis"
	}
	if c.MinLevel == 0 {
		c.MinLevel = 3
	}
	if c.MaxLevel == 0 {
		c.MaxLevel = 11
	}
	if c.InitialLevel == 0 {
		c.InitialLevel = c.MinLevel
	}
	if c.RaiseRate == 0 {
		c.RaiseRate = 0.5
	}
	if c.Step == 0 {
		c.Step = 2
	}
	if c.CooldownRounds == 0 {
		c.CooldownRounds = 2
	}
	if c.HistoryWindows == 0 {
		c.HistoryWindows = 8
	}
	if c.TraceDepth == 0 {
		c.TraceDepth = 64
	}
}

func (c Config) validate() error {
	if c.MinLevel < 1 {
		return fmt.Errorf("seclevel: MinLevel must be at least 1, got %d", c.MinLevel)
	}
	if c.MaxLevel < c.MinLevel {
		return fmt.Errorf("seclevel: MaxLevel %d below MinLevel %d", c.MaxLevel, c.MinLevel)
	}
	if c.InitialLevel < c.MinLevel || c.InitialLevel > c.MaxLevel {
		return fmt.Errorf("seclevel: InitialLevel %d outside clamp range [%d, %d]",
			c.InitialLevel, c.MinLevel, c.MaxLevel)
	}
	if c.LowerRate < 0 || c.RaiseRate <= c.LowerRate {
		return fmt.Errorf("seclevel: need RaiseRate > LowerRate ≥ 0, got raise %g, lower %g",
			c.RaiseRate, c.LowerRate)
	}
	if c.Step < 1 {
		return fmt.Errorf("seclevel: Step must be at least 1, got %d", c.Step)
	}
	if c.HistoryWindows < 1 || c.TraceDepth < 1 {
		return fmt.Errorf("seclevel: HistoryWindows and TraceDepth must be positive")
	}
	return nil
}

// PolicyNames lists the built-in policies NewPolicy accepts.
func PolicyNames() []string { return []string{"hysteresis", "aggressive", "static"} }

// NewPolicy builds a named decision policy from cfg (which must already
// be normalized when called directly; New does this for you):
//
//   - "hysteresis": raise by Step when the rate is at or above
//     RaiseRate, lower by one when at or below LowerRate, hold in the
//     band between — the production default.
//   - "aggressive": jump straight to MaxLevel on any crossing, step
//     down by one only when fully quiet.
//   - "static": never change the level (the ablation baseline; the
//     controller still traces that it held).
func NewPolicy(name string, cfg Config) (Policy, error) {
	switch name {
	case "hysteresis":
		return hysteresisPolicy{raise: cfg.RaiseRate, lower: cfg.LowerRate, step: cfg.Step}, nil
	case "aggressive":
		return aggressivePolicy{max: cfg.MaxLevel}, nil
	case "static":
		return staticPolicy{}, nil
	default:
		return nil, fmt.Errorf("seclevel: unknown policy %q (known: %s)",
			name, strings.Join(PolicyNames(), ", "))
	}
}

type hysteresisPolicy struct {
	raise, lower float64
	step         int
}

func (hysteresisPolicy) Name() string { return "hysteresis" }

func (p hysteresisPolicy) Target(obs Observation) int {
	if obs.Windows == 0 {
		return obs.Level // no signal yet
	}
	if obs.Rate >= p.raise {
		return obs.Level + p.step
	}
	if obs.Rate <= p.lower {
		return obs.Level - 1
	}
	return obs.Level
}

type aggressivePolicy struct{ max int }

func (aggressivePolicy) Name() string { return "aggressive" }

func (p aggressivePolicy) Target(obs Observation) int {
	if obs.Alarms > 0 {
		return p.max
	}
	if obs.Windows > 0 {
		return obs.Level - 1
	}
	return obs.Level
}

type staticPolicy struct{}

func (staticPolicy) Name() string { return "static" }

func (staticPolicy) Target(obs Observation) int { return obs.Level }

// Action classifies a decision.
type Action int

const (
	// Hold: no transition (in-band rate, cooldown, or clamp).
	Hold Action = iota
	// Raise: the level went up.
	Raise
	// Lower: the level went down.
	Lower
)

// String names the action.
func (a Action) String() string {
	switch a {
	case Raise:
		return "raise"
	case Lower:
		return "lower"
	default:
		return "hold"
	}
}

// Decision records one applied level transition.
type Decision struct {
	// Round is the remap round at whose boundary the decision fired.
	Round uint64
	// Action is Raise or Lower (holds are not traced).
	Action Action
	// From and To are the levels before and after.
	From, To int
	// Alarms, Windows and Rate echo the observation that triggered it.
	Alarms  uint64
	Windows int
	Rate    float64
}

// String renders the decision deterministically (no wall clock, no
// addresses), so traces compare byte-for-byte across replays.
func (d Decision) String() string {
	return fmt.Sprintf("round %d: %s %d -> %d (rate %.3f over %d windows, %d crossings)",
		d.Round, d.Action, d.From, d.To, d.Rate, d.Windows, d.Alarms)
}

// Controller owns the security level of one scheme instance. It is
// single-writer like everything else in the simulation stack: call
// OnRoundBoundary from the goroutine driving the scheme.
type Controller struct {
	cfg    Config
	policy Policy

	level       int
	lastChange  uint64 // round of the most recent transition
	everChanged bool
	raises      uint64
	lowers      uint64

	trace   []Decision
	dropped uint64

	// OnApply, when set, observes every applied transition (after the
	// trace records it). The memserver executors use it to emit
	// level-change events; it runs on the calling goroutine.
	OnApply func(Decision)
}

// New builds a controller from cfg (normalized, then validated).
func New(cfg Config) (*Controller, error) {
	cfg.normalize()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	policy, err := NewPolicy(cfg.Policy, cfg)
	if err != nil {
		return nil, err
	}
	return &Controller{cfg: cfg, policy: policy, level: cfg.InitialLevel}, nil
}

// MustNew is New that panics on error; for literal configurations.
func MustNew(cfg Config) *Controller {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the normalized configuration.
func (c *Controller) Config() Config { return c.cfg }

// Policy returns the active decision policy.
func (c *Controller) Policy() Policy { return c.policy }

// Level returns the level of the controller's most recent decision.
func (c *Controller) Level() int { return c.level }

// Raises and Lowers count applied transitions in each direction.
func (c *Controller) Raises() uint64 { return c.raises }

// Lowers counts applied downward transitions.
func (c *Controller) Lowers() uint64 { return c.lowers }

// OnRoundBoundary consumes one observation at a remap-round boundary
// and returns the level the scheme should run next round. changed
// reports an applied transition (clamps, cooldown and in-band rates all
// return the current level with changed == false). The caller feeds the
// scheme's live level back in via obs.Level; the controller treats it
// as authoritative, so a deferred SetStages that has not landed yet is
// simply re-decided against reality at the next boundary.
func (c *Controller) OnRoundBoundary(obs Observation) (target int, changed bool) {
	c.level = obs.Level
	if c.everChanged && obs.Round < c.lastChange+c.cfg.CooldownRounds {
		return c.level, false
	}
	want := c.policy.Target(obs)
	if want > c.cfg.MaxLevel {
		want = c.cfg.MaxLevel
	}
	if want < c.cfg.MinLevel {
		want = c.cfg.MinLevel
	}
	if want == obs.Level {
		return c.level, false
	}
	d := Decision{
		Round: obs.Round, From: obs.Level, To: want,
		Alarms: obs.Alarms, Windows: obs.Windows, Rate: obs.Rate,
	}
	if want > obs.Level {
		d.Action = Raise
		c.raises++
	} else {
		d.Action = Lower
		c.lowers++
	}
	c.level = want
	c.lastChange = obs.Round
	c.everChanged = true
	c.record(d)
	if c.OnApply != nil {
		c.OnApply(d)
	}
	return want, true
}

// record appends d to the bounded trace, evicting the oldest entry
// (counted in dropped) when full.
func (c *Controller) record(d Decision) {
	if len(c.trace) >= c.cfg.TraceDepth {
		copy(c.trace, c.trace[1:])
		c.trace[len(c.trace)-1] = d
		c.dropped++
		return
	}
	c.trace = append(c.trace, d)
}

// Trace returns a copy of the retained decisions, oldest first.
func (c *Controller) Trace() []Decision {
	return append([]Decision(nil), c.trace...)
}

// Dropped returns how many decisions the bounded trace evicted.
func (c *Controller) Dropped() uint64 { return c.dropped }

// TraceString renders the retained trace one decision per line — the
// artifact the replay tests compare byte-for-byte.
func (c *Controller) TraceString() string {
	var b strings.Builder
	if c.dropped > 0 {
		fmt.Fprintf(&b, "(%d earlier decisions dropped)\n", c.dropped)
	}
	for _, d := range c.trace {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}
