package registry

import (
	"fmt"

	"securityrbsg/internal/attack"
	"securityrbsg/internal/exactsim"
	"securityrbsg/internal/lifetime"
	"securityrbsg/internal/pcm"
	"securityrbsg/internal/stats"
	"securityrbsg/internal/wear"
)

// Env is everything an exact-tier attack runner receives: the resolved
// cell configuration, the plugin descriptors, the live scheme instance
// wired to a simulated bank, and the attacker-facing target (the
// controller behind exactsim's bit-identical fast paths).
type Env struct {
	Cfg        Config
	Scheme     *Scheme
	Attack     *Attack
	Instance   wear.Scheme
	Controller *wear.Controller
	Target     attack.Target
}

// Result is an exact-tier attack outcome as the adapter reports it.
type Result struct {
	// Writes is the number of demand writes the attacker issued.
	Writes uint64
	// AttackNs is the attacker-observed elapsed time.
	AttackNs uint64
	// Failed reports whether the attacker wore a line past endurance;
	// FailedPA is that line, which RunExact reads from the bank.
	Failed   bool
	FailedPA uint64
	// Aborted reports that the attack gave up — budget exhausted or its
	// shadow model broke down against this scheme — without failing a
	// line: the defense held. Note records why.
	Aborted bool
	Note    string
	// Phase accounting, where the attack distinguishes phases (zero
	// otherwise). AlignWrites + DetectWrites is the attacker-side
	// detection latency: writes spent aligning with and extracting the
	// scheme's mapping secrets before targeted wear-out could begin.
	attack.Phases
}

// AlarmReporter is an optional wear.Scheme capability: a scheme with an
// online attack detector reports the index (in demand writes since boot)
// of the write that raised its first alarm — the defender-side detection
// latency.
type AlarmReporter interface {
	FirstAlarmWrite() (write uint64, ok bool)
}

// ExactOutcome is one exact-tier cell's full result: the attack outcome,
// the controller's closing statistics, and the derived per-cell metrics.
type ExactOutcome struct {
	SchemeName, AttackName string
	// Cfg is the fully resolved configuration the cell actually ran
	// (scheme defaults and attack preparation applied).
	Cfg    Config
	Result Result
	Stats  wear.Stats
	// WearGini is the Gini coefficient of the bank's closing wear
	// distribution: 0 = perfectly even leveling, →1 = all wear on one
	// line.
	WearGini float64
	// FirstAlarmWrite is the defender-side detection latency, when the
	// scheme carries an online detector that alarmed (FirstAlarmOK).
	FirstAlarmWrite uint64
	FirstAlarmOK    bool
}

// Metrics flattens the outcome into the per-cell metric map the runner
// records: everything deterministic, nothing wall-clock.
func (o *ExactOutcome) Metrics() map[string]float64 {
	d := o.Cfg.Device()
	m := map[string]float64{
		"writes":       float64(o.Result.Writes),
		"seconds":      float64(o.Result.AttackNs) * 1e-9,
		"fraction":     float64(o.Result.Writes) / d.IdealWrites(),
		"defense_held": 0,
		"detect_writes": float64(o.Result.AlignWrites +
			o.Result.DetectWrites),
		"wear_gini": o.WearGini,
		"max_wear":  float64(o.Stats.MaxWear),
		"endurance": float64(o.Cfg.Endurance),
	}
	if !o.Result.Failed {
		m["defense_held"] = 1
	}
	if o.FirstAlarmOK {
		m["first_alarm_write"] = float64(o.FirstAlarmWrite)
	}
	return m
}

// Device returns the lifetime-model device of the resolved configuration.
func (o *ExactOutcome) Device() lifetime.Device { return o.Cfg.Device() }

// RunExact composes and runs one exact-tier cell: resolve both plugins,
// gate on capabilities (before any simulation state exists), resolve the
// configuration (scheme defaults, then attack preparation), build the
// scheme on a fresh simulated bank, wrap it in exactsim.FastTarget and
// execute the attack.
func (r *Registry) RunExact(scheme, attack string, cfg Config) (*ExactOutcome, error) {
	s, err := r.Scheme(scheme)
	if err != nil {
		return nil, err
	}
	a, err := r.Attack(attack)
	if err != nil {
		return nil, err
	}
	if err := CompatibleExact(s, a); err != nil {
		return nil, err
	}
	if cfg.Lines == 0 || cfg.Lines&(cfg.Lines-1) != 0 {
		return nil, fmt.Errorf("registry: lines must be a power of two, got %d", cfg.Lines)
	}
	if cfg.Endurance == 0 {
		return nil, fmt.Errorf("registry: endurance must be positive")
	}
	if s.Defaults != nil {
		cfg = s.Defaults(cfg)
	}
	if a.Prepare != nil {
		cfg, err = a.Prepare(s, cfg)
		if err != nil {
			return nil, fmt.Errorf("registry: %s vs %s: %w", a.Name, s.Name, err)
		}
	}

	inst, err := s.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("registry: scheme %s: %w", s.Name, err)
	}
	ctrl, err := wear.NewController(pcm.Config{
		Endurance: cfg.Endurance, Timing: cfg.timing(),
	}, inst)
	if err != nil {
		return nil, fmt.Errorf("registry: scheme %s: %w", s.Name, err)
	}

	env := &Env{
		Cfg: cfg, Scheme: s, Attack: a, Instance: inst, Controller: ctrl,
		Target: exactsim.NewFastTarget(ctrl, cfg.Workers),
	}
	res, err := a.RunExact(env)
	if err != nil {
		return nil, fmt.Errorf("registry: %s vs %s: %w", a.Name, s.Name, err)
	}
	if !res.Failed && !res.Aborted {
		return nil, fmt.Errorf("registry: %s vs %s: attack finished after %d writes with no failure and no abort",
			a.Name, s.Name, res.Writes)
	}
	if res.Failed {
		res.FailedPA, _, _ = ctrl.Bank().FirstFailure()
	}

	out := &ExactOutcome{
		SchemeName: s.Name, AttackName: a.Name,
		Cfg: cfg, Result: res,
		Stats:    ctrl.Stats(),
		WearGini: stats.Gini(ctrl.Bank().WearSnapshot(nil)),
	}
	if ar, ok := inst.(AlarmReporter); ok {
		out.FirstAlarmWrite, out.FirstAlarmOK = ar.FirstAlarmWrite()
	}
	return out, nil
}
