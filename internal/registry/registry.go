// Package registry is the plugin registry that turns the paper's
// scheme×attack cross-product into data. Wear-leveling schemes, attacks
// and closed-form lifetime models are named entries with capability
// flags; internal/plugins holds the in-tree table and registers it into
// Default. Everything downstream — cmd/tournament's full matrix,
// cmd/lifetime's single-cell evaluation, cmd/figgen's closed-form
// figures — composes cells by name out of this registry instead of
// hand-wiring each combination, so a new scenario from PAPERS.md is one
// table entry plus tests, not a new command.
//
// Two tiers share the same names:
//
//   - The model tier evaluates a (scheme, attack) pair in closed form or
//     by Monte-Carlo visit simulation (internal/lifetime), at any device
//     geometry, in microseconds to seconds. Models are registered per
//     pair because that is what a closed form is: RegisterModel.
//
//   - The exact tier builds the real scheme (wear.Scheme), wires it to a
//     simulated pcm.Bank through wear.Controller, and runs the real
//     attack write by write (accelerated bit-identically by
//     exactsim.FastTarget). Schemes declare the capability with
//     SchemeCaps.Exact; attacks with AttackCaps.Exact.
//
// Capability flags gate composition before any simulation state is
// built: an exact-tier attack against a model-only scheme, or a timing
// attack against a scheme with no timing channel, is rejected by
// CompatibleExact with an error naming the missing capability.
//
// Registration contract: names are non-empty, contain no '/', ',' or
// whitespace (they appear in cell IDs, CSV rows and checkpoint paths),
// and are registered exactly once — a duplicate registration panics at
// init time, because two entries claiming one name is a programming
// error no run should paper over.
package registry

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"securityrbsg/internal/lifetime"
	"securityrbsg/internal/pcm"
	"securityrbsg/internal/wear"
)

// Config is the declarative cell configuration every plugin consumes: the
// device geometry, the scheme knobs (sub-regions, intervals, security
// level) and the attacker's budget. Zero fields mean "use the plugin's
// recommended default" — each scheme's Defaults hook fills them in, so a
// tournament cell can be as small as (lines, endurance, seed).
type Config struct {
	// Lines is the logical line count N (schemes require a power of two).
	Lines uint64
	// Endurance is the per-line write endurance E.
	Endurance uint64
	// Timing is the device timing; the zero value means pcm.DefaultTiming.
	Timing pcm.Timing

	// Regions is the sub-region count R (0 = scheme default).
	Regions uint64
	// InnerInterval is the inner remapping interval ψ_i — for single-level
	// schemes, the only interval (0 = scheme default).
	InnerInterval uint64
	// OuterInterval is the outer remapping interval ψ_o (0 = scheme
	// default; ignored by single-level schemes).
	OuterInterval uint64
	// Stages is the DFN stage count — the paper's adjustable security
	// level (0 = scheme default).
	Stages int

	// Seed derives all randomness: scheme keys and any attack RNG.
	Seed uint64
	// Runs is the number of random-key trials model-tier Monte-Carlo
	// estimators average (0 = 1).
	Runs int

	// MaxWrites is the attacker's write budget on the exact tier
	// (0 = unbounded; attacks that never succeed impose their own bound).
	MaxWrites uint64
	// Workers caps the parallelism of accelerated sweep kernels
	// (0 = GOMAXPROCS). Grid harnesses that already shard cells across
	// workers should pass 1.
	Workers int
}

// timing returns the configured device timing, defaulting to the paper's.
func (c Config) timing() pcm.Timing {
	if c.Timing == (pcm.Timing{}) {
		return pcm.DefaultTiming
	}
	return c.Timing
}

// Device returns the lifetime-model device for this configuration.
func (c Config) Device() lifetime.Device {
	return lifetime.Device{Lines: c.Lines, Endurance: c.Endurance, Timing: c.timing()}
}

// SchemeCaps are a scheme plugin's declared capabilities.
type SchemeCaps struct {
	// Exact: New builds a real wear.Scheme for write-by-write simulation.
	// Model-only schemes (closed forms with no implementation in tree)
	// leave it false and are rejected from exact-tier cells.
	Exact bool
	// TimingOracle: the scheme performs remapping movements whose latency
	// is visible on the triggering request — the side channel the
	// Remapping Timing Attack needs. The passthrough baseline never
	// remaps, so it has no channel to attack.
	TimingOracle bool
	// AdjustableLevel: instances support live security-level transitions
	// (core.Scheme.SetStages-style, applied at remap-round boundaries),
	// so the adaptive controller (internal/seclevel) can drive them.
	// Requires Exact — a level only a model could hold has nothing to
	// adjust.
	AdjustableLevel bool
}

// Scheme is a named wear-leveling scheme plugin.
type Scheme struct {
	// Name is the registry key, e.g. "security-rbsg".
	Name string
	// Doc is a one-line description for listings.
	Doc string
	// Caps declare what the scheme supports.
	Caps SchemeCaps
	// Defaults fills zero Config fields with the scheme's recommended
	// configuration at the given geometry (optional).
	Defaults func(cfg Config) Config
	// New builds the scheme instance. Required when Caps.Exact.
	New func(cfg Config) (wear.Scheme, error)
}

// AttackCaps are an attack plugin's declared capabilities and needs.
type AttackCaps struct {
	// Exact: RunExact drives the real attack against a wear.Controller.
	Exact bool
	// NeedsTimingOracle: the attack reads mapping secrets out of
	// per-request latency and requires SchemeCaps.TimingOracle.
	NeedsTimingOracle bool
	// ExactTargets, when non-empty, names the only schemes this attack's
	// shadow model is wired for; other pairings are rejected. Attacks
	// with generic write streams (RAA, BPA) leave it empty.
	ExactTargets []string
}

// Attack is a named attack plugin.
type Attack struct {
	// Name is the registry key, e.g. "rta".
	Name string
	// Doc is a one-line description for listings.
	Doc string
	// Caps declare what the attack needs from its target.
	Caps AttackCaps
	// Prepare adjusts the resolved configuration for this attack —
	// raising endurance to the attack's documented minimum, bounding an
	// otherwise non-terminating budget — or rejects the geometry with an
	// error before any simulation state is built (optional).
	Prepare func(s *Scheme, cfg Config) (Config, error)
	// RunExact executes the attack against env. Required when Caps.Exact.
	RunExact func(env *Env) (Result, error)
}

// ModelFunc evaluates a (scheme, attack) pair's closed-form or
// Monte-Carlo lifetime model at the configured geometry.
type ModelFunc func(cfg Config) (lifetime.Estimate, error)

// Registry holds named scheme, attack and model plugins. The zero value
// is not usable; use New. Registration is expected at init() time but is
// safe concurrently; lookups may run from many goroutines.
type Registry struct {
	mu      sync.RWMutex
	schemes map[string]*Scheme
	attacks map[string]*Attack
	models  map[string]ModelFunc // keyed "scheme/attack"
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		schemes: map[string]*Scheme{},
		attacks: map[string]*Attack{},
		models:  map[string]ModelFunc{},
	}
}

// Default is the process-wide registry. It starts empty; importing
// securityrbsg/internal/plugins fills it with the in-tree table.
var Default = New()

// checkName panics unless name is usable as a registry key.
func checkName(kind, name string) {
	if name == "" || strings.ContainsAny(name, "/, \t\n") {
		panic(fmt.Sprintf("registry: invalid %s name %q (must be non-empty, no '/', ',' or whitespace)", kind, name))
	}
}

// RegisterScheme adds s, panicking on an invalid or duplicate name or a
// capability/constructor mismatch.
func (r *Registry) RegisterScheme(s Scheme) {
	checkName("scheme", s.Name)
	if s.Caps.Exact && s.New == nil {
		panic(fmt.Sprintf("registry: scheme %q declares Exact but has no constructor", s.Name))
	}
	if !s.Caps.Exact && s.New != nil {
		panic(fmt.Sprintf("registry: scheme %q has a constructor but does not declare Exact", s.Name))
	}
	if s.Caps.AdjustableLevel && !s.Caps.Exact {
		panic(fmt.Sprintf("registry: scheme %q declares AdjustableLevel without Exact (nothing to adjust)", s.Name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.schemes[s.Name]; dup {
		panic(fmt.Sprintf("registry: duplicate scheme registration %q", s.Name))
	}
	r.schemes[s.Name] = &s
}

// RegisterAttack adds a, panicking on an invalid or duplicate name or a
// capability/runner mismatch.
func (r *Registry) RegisterAttack(a Attack) {
	checkName("attack", a.Name)
	if a.Caps.Exact && a.RunExact == nil {
		panic(fmt.Sprintf("registry: attack %q declares Exact but has no runner", a.Name))
	}
	if !a.Caps.Exact && a.RunExact != nil {
		panic(fmt.Sprintf("registry: attack %q has a runner but does not declare Exact", a.Name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.attacks[a.Name]; dup {
		panic(fmt.Sprintf("registry: duplicate attack registration %q", a.Name))
	}
	r.attacks[a.Name] = &a
}

// RegisterModel adds the model for one (scheme, attack) pair, panicking
// on a duplicate. The names need not be registered yet, but lookups
// through EvalModel require both.
func (r *Registry) RegisterModel(scheme, attack string, fn ModelFunc) {
	checkName("scheme", scheme)
	checkName("attack", attack)
	if fn == nil {
		panic(fmt.Sprintf("registry: nil model for %s/%s", scheme, attack))
	}
	key := scheme + "/" + attack
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.models[key]; dup {
		panic(fmt.Sprintf("registry: duplicate model registration %s", key))
	}
	r.models[key] = fn
}

// Scheme resolves a scheme by name; the error lists what is registered.
func (r *Registry) Scheme(name string) (*Scheme, error) {
	r.mu.RLock()
	s, ok := r.schemes[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("registry: unknown scheme %q (registered: %s)",
			name, strings.Join(r.SchemeNames(), ", "))
	}
	return s, nil
}

// Attack resolves an attack by name; the error lists what is registered.
func (r *Registry) Attack(name string) (*Attack, error) {
	r.mu.RLock()
	a, ok := r.attacks[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("registry: unknown attack %q (registered: %s)",
			name, strings.Join(r.AttackNames(), ", "))
	}
	return a, nil
}

// SchemeNames lists registered schemes in sorted order.
func (r *Registry) SchemeNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.schemes))
	for n := range r.schemes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// AttackNames lists registered attacks in sorted order.
func (r *Registry) AttackNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.attacks))
	for n := range r.attacks {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ModelPairs lists "scheme/attack" keys with registered models, sorted.
func (r *Registry) ModelPairs() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	pairs := make([]string, 0, len(r.models))
	for k := range r.models {
		pairs = append(pairs, k)
	}
	sort.Strings(pairs)
	return pairs
}

// Model returns the registered model for the pair, if any.
func (r *Registry) Model(scheme, attack string) (ModelFunc, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	fn, ok := r.models[scheme+"/"+attack]
	return fn, ok
}

// EvalModel resolves both names and evaluates the pair's model. Unknown
// names and unmodeled pairs return listable errors.
func (r *Registry) EvalModel(scheme, attack string, cfg Config) (lifetime.Estimate, error) {
	s, err := r.Scheme(scheme)
	if err != nil {
		return lifetime.Estimate{}, err
	}
	a, err := r.Attack(attack)
	if err != nil {
		return lifetime.Estimate{}, err
	}
	fn, ok := r.Model(s.Name, a.Name)
	if !ok {
		return lifetime.Estimate{}, fmt.Errorf("registry: no lifetime model for scheme %q under attack %q (modeled pairs: %s)",
			s.Name, a.Name, strings.Join(r.ModelPairs(), ", "))
	}
	if s.Defaults != nil {
		cfg = s.Defaults(cfg)
	}
	return fn(cfg)
}

// CompatibleExact reports whether attack a can run against scheme s on
// the exact tier. It is evaluated before any simulation state is built;
// a non-nil error names the missing capability.
func CompatibleExact(s *Scheme, a *Attack) error {
	if !a.Caps.Exact {
		return fmt.Errorf("registry: attack %q is model-only (no exact-tier runner)", a.Name)
	}
	if !s.Caps.Exact {
		return fmt.Errorf("registry: scheme %q is model-only; exact-tier attack %q rejected", s.Name, a.Name)
	}
	if a.Caps.NeedsTimingOracle && !s.Caps.TimingOracle {
		return fmt.Errorf("registry: attack %q needs a timing oracle but scheme %q exposes no remapping timing channel", a.Name, s.Name)
	}
	if len(a.Caps.ExactTargets) > 0 {
		for _, t := range a.Caps.ExactTargets {
			if t == s.Name {
				return nil
			}
		}
		return fmt.Errorf("registry: attack %q has no shadow model for scheme %q (wired for: %s)",
			a.Name, s.Name, strings.Join(a.Caps.ExactTargets, ", "))
	}
	return nil
}
