package registry

import (
	"strings"
	"testing"

	"securityrbsg/internal/lifetime"
	"securityrbsg/internal/pcm"
	"securityrbsg/internal/wear"
)

// passthroughScheme is a minimal valid exact-tier scheme registration.
func passthroughScheme(name string) Scheme {
	return Scheme{
		Name: name,
		Caps: SchemeCaps{Exact: true},
		New: func(cfg Config) (wear.Scheme, error) {
			return wear.NewPassthrough(cfg.Lines), nil
		},
	}
}

// hammerAttack is a minimal valid exact-tier attack: write line 3
// until the bank fails. It leaves FailedPA to RunExact.
func hammerAttack(name string) Attack {
	return Attack{
		Name: name,
		Caps: AttackCaps{Exact: true},
		RunExact: func(env *Env) (Result, error) {
			var r Result
			for !env.Controller.Bank().Failed() {
				r.AttackNs += env.Target.Write(3, pcm.Mixed)
				r.Writes++
			}
			r.Failed = true
			return r, nil
		},
	}
}

func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic (want one containing %q)", want)
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want one containing %q", r, want)
		}
	}()
	fn()
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := New()
	r.RegisterScheme(passthroughScheme("s"))
	mustPanic(t, `duplicate scheme registration "s"`, func() {
		r.RegisterScheme(passthroughScheme("s"))
	})
	r.RegisterAttack(hammerAttack("a"))
	mustPanic(t, `duplicate attack registration "a"`, func() {
		r.RegisterAttack(hammerAttack("a"))
	})
	model := func(cfg Config) (lifetime.Estimate, error) {
		return lifetime.Baseline(cfg.Device()), nil
	}
	r.RegisterModel("s", "a", model)
	mustPanic(t, "duplicate model registration s/a", func() {
		r.RegisterModel("s", "a", model)
	})
}

func TestInvalidNamesPanic(t *testing.T) {
	r := New()
	for _, bad := range []string{"", "a/b", "a,b", "a b", "a\tb"} {
		mustPanic(t, "invalid scheme name", func() {
			r.RegisterScheme(passthroughScheme(bad))
		})
	}
}

func TestCapabilityConstructorMismatchPanics(t *testing.T) {
	r := New()
	mustPanic(t, "declares Exact but has no constructor", func() {
		r.RegisterScheme(Scheme{Name: "x", Caps: SchemeCaps{Exact: true}})
	})
	mustPanic(t, "has a constructor but does not declare Exact", func() {
		s := passthroughScheme("x")
		s.Caps.Exact = false
		r.RegisterScheme(s)
	})
	mustPanic(t, "declares Exact but has no runner", func() {
		r.RegisterAttack(Attack{Name: "y", Caps: AttackCaps{Exact: true}})
	})
	mustPanic(t, "has a runner but does not declare Exact", func() {
		a := hammerAttack("y")
		a.Caps.Exact = false
		r.RegisterAttack(a)
	})
	mustPanic(t, "nil model", func() { r.RegisterModel("s", "a", nil) })
}

func TestAdjustableLevelRequiresExact(t *testing.T) {
	r := New()
	mustPanic(t, "declares AdjustableLevel without Exact", func() {
		r.RegisterScheme(Scheme{
			Name: "model-only-adjustable",
			Caps: SchemeCaps{AdjustableLevel: true},
		})
	})
	// The flag composes fine with Exact.
	s := passthroughScheme("adjustable")
	s.Caps.AdjustableLevel = true
	r.RegisterScheme(s)
	got, err := r.Scheme("adjustable")
	if err != nil || !got.Caps.AdjustableLevel {
		t.Fatalf("registered adjustable scheme lost its capability: %+v, %v", got, err)
	}
}

func TestUnknownNamesReturnListableErrors(t *testing.T) {
	r := New()
	r.RegisterScheme(passthroughScheme("alpha"))
	r.RegisterScheme(passthroughScheme("beta"))
	r.RegisterAttack(hammerAttack("hammer"))

	if _, err := r.Scheme("gamma"); err == nil ||
		!strings.Contains(err.Error(), "registered: alpha, beta") {
		t.Fatalf("scheme error not listable: %v", err)
	}
	if _, err := r.Attack("nope"); err == nil ||
		!strings.Contains(err.Error(), "registered: hammer") {
		t.Fatalf("attack error not listable: %v", err)
	}
	// EvalModel on an unmodeled (but registered) pair lists modeled pairs.
	r.RegisterModel("alpha", "hammer", func(cfg Config) (lifetime.Estimate, error) {
		return lifetime.Baseline(cfg.Device()), nil
	})
	if _, err := r.EvalModel("beta", "hammer", Config{Lines: 8, Endurance: 10}); err == nil ||
		!strings.Contains(err.Error(), "modeled pairs: alpha/hammer") {
		t.Fatalf("model error not listable: %v", err)
	}
	// Unknown names propagate through the composing entry points too.
	if _, err := r.EvalModel("gamma", "hammer", Config{}); err == nil ||
		!strings.Contains(err.Error(), `unknown scheme "gamma"`) {
		t.Fatalf("EvalModel scheme error: %v", err)
	}
	if _, err := r.RunExact("gamma", "hammer", Config{Lines: 8, Endurance: 10}); err == nil ||
		!strings.Contains(err.Error(), `unknown scheme "gamma"`) {
		t.Fatalf("RunExact scheme error: %v", err)
	}
}

func TestCompatibleExactGates(t *testing.T) {
	exact := passthroughScheme("exact-scheme")
	modelOnly := Scheme{Name: "model-only"}
	timing := hammerAttack("timing")
	timing.Caps.NeedsTimingOracle = true
	wired := hammerAttack("wired")
	wired.Caps.ExactTargets = []string{"other"}
	modelAttack := Attack{Name: "paper-only"}

	cases := []struct {
		s    *Scheme
		a    *Attack
		want string
	}{
		{&exact, &modelAttack, "model-only (no exact-tier runner)"},
		{&modelOnly, ptrAttack(hammerAttack("h")), `scheme "model-only" is model-only`},
		{&exact, &timing, "needs a timing oracle"},
		{&exact, &wired, "no shadow model"},
	}
	for _, c := range cases {
		err := CompatibleExact(c.s, c.a)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("CompatibleExact(%s, %s) = %v, want error containing %q",
				c.s.Name, c.a.Name, err, c.want)
		}
	}
	if err := CompatibleExact(&exact, ptrAttack(hammerAttack("h"))); err != nil {
		t.Fatalf("compatible pair rejected: %v", err)
	}
}

func ptrAttack(a Attack) *Attack { return &a }

// TestMismatchRejectedBeforeSimulation: a capability-gated pairing must
// be rejected before the scheme constructor (i.e. any simulation state)
// runs.
func TestMismatchRejectedBeforeSimulation(t *testing.T) {
	r := New()
	built := false
	s := passthroughScheme("plain")
	inner := s.New
	s.New = func(cfg Config) (wear.Scheme, error) {
		built = true
		return inner(cfg)
	}
	r.RegisterScheme(s)
	timing := hammerAttack("timing")
	timing.Caps.NeedsTimingOracle = true
	r.RegisterAttack(timing)

	if _, err := r.RunExact("plain", "timing", Config{Lines: 8, Endurance: 5}); err == nil {
		t.Fatal("incompatible pairing accepted")
	}
	if built {
		t.Fatal("scheme constructor ran for a rejected pairing")
	}
}

func TestRunExactValidatesGeometry(t *testing.T) {
	r := New()
	r.RegisterScheme(passthroughScheme("s"))
	r.RegisterAttack(hammerAttack("a"))
	if _, err := r.RunExact("s", "a", Config{Lines: 3, Endurance: 5}); err == nil ||
		!strings.Contains(err.Error(), "power of two") {
		t.Fatalf("non-power-of-two lines: %v", err)
	}
	if _, err := r.RunExact("s", "a", Config{Lines: 8}); err == nil ||
		!strings.Contains(err.Error(), "endurance") {
		t.Fatalf("zero endurance: %v", err)
	}
}

func TestRunExactEndToEnd(t *testing.T) {
	r := New()
	r.RegisterScheme(passthroughScheme("s"))
	r.RegisterAttack(hammerAttack("a"))
	out, err := r.RunExact("s", "a", Config{Lines: 8, Endurance: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Result.Failed || out.Result.Writes != 6 || out.Result.FailedPA != 3 {
		t.Fatalf("hammering line 3 of a passthrough: %+v", out.Result)
	}
	m := out.Metrics()
	if m["defense_held"] != 0 || m["writes"] != 6 {
		t.Fatalf("metrics: %v", m)
	}
	// All wear on one of 8 lines: Gini = (n-1)/n.
	if g := m["wear_gini"]; g < 0.87 || g > 0.88 {
		t.Fatalf("wear gini %v, want 7/8", g)
	}
	if _, ok := m["first_alarm_write"]; ok {
		t.Fatal("passthrough must not report a defender-side alarm")
	}
}
