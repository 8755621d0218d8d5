// Package memserver turns the batch simulator into a long-running
// memory-controller service: a membank.Memory sharded across per-bank
// single-writer actors behind the binary wire protocol, its one data
// plane, with a stdlib net/http control plane (/healthz, /metrics). It
// is also the one implementation of that wire — codec (wire.go),
// connection server (conn.go) and client (binaryclient.go) — which
// internal/memrouter serves and dials through.
//
// The paper deploys Security RBSG "in the memory controller, managing
// each bank separately" (Section IV-A); memserver is that controller as
// an online system. Every bank gets exactly one goroutine (its actor)
// that owns the bank's wear.Controller, its scheme, and its detector —
// so the existing non-thread-safe scheme/PCM code runs unmodified and
// unlocked, and the paper's bank-isolation property holds by
// construction: no request ever touches, or observes the timing of, a
// bank other than the one it addresses.
//
// Requests enter through bounded per-bank queues. A full queue is
// explicit backpressure (a Nack frame), never an unbounded goroutine
// pileup. Batches are coalesced per bank: one queue entry per touched
// bank, preserving per-bank op order, with banks executing in parallel
// and the batch waiting once for all of them.
//
// Telemetry the batch tools compute only post-hoc is published live:
// each actor periodically (and at drain) publishes an immutable
// BankSnapshot through an atomic pointer, so /metrics never blocks on —
// or races with — the simulation hot path.
package memserver

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"securityrbsg/internal/core"
	"securityrbsg/internal/detector"
	"securityrbsg/internal/membank"
	"securityrbsg/internal/pcm"
	"securityrbsg/internal/rbsg"
	"securityrbsg/internal/seclevel"
	"securityrbsg/internal/wear"
)

// Scheme names accepted by Config.Scheme.
const (
	SchemeRBSGDetector = "rbsg+detector"  // RBSG wrapped in the online attack detector (default)
	SchemeRBSG         = "rbsg"           // plain Region-Based Start-Gap
	SchemeSecurityRBSG = "srbsg"          // the paper's Security RBSG
	SchemeAdaptive     = "srbsg+adaptive" // Security RBSG + detector-driven level controller
	SchemeNone         = "none"           // passthrough baseline
)

// Config describes one memory-controller daemon instance.
type Config struct {
	// Banks is the number of independently wear-leveled banks; addresses
	// interleave across banks at line granularity (membank layout).
	Banks int
	// Lines is the total logical line count; Lines/Banks must be a power
	// of two for the randomized schemes.
	Lines uint64
	// Scheme selects the per-bank wear-leveling scheme (constants above).
	Scheme string
	// Regions and Interval configure RBSG per bank (defaults 32 / 100).
	Regions  uint64
	Interval uint64
	// Stages is the DFN stage count for srbsg (default 7).
	Stages int
	// Seed seeds per-bank key generation; bank i uses Seed+i so no two
	// banks share randomizer keys.
	Seed uint64
	// Endurance is per-line write endurance (default 2^30 so a demo
	// server does not wear out mid-run; lower it to study failures).
	Endurance uint64
	// LineBytes is the line size (default 256).
	LineBytes int
	// QueueDepth bounds each bank's request queue (default 256 entries).
	QueueDepth int
	// SnapshotEvery is how many ops an actor processes between telemetry
	// snapshots (default 8192; tests set 1 for exact live metrics). The
	// wear percentiles read every line of the bank, so they refresh only
	// every max(SnapshotEvery, lines per bank) ops; like every other
	// field they are exact after drain.
	SnapshotEvery uint64
	// Detector tunes the per-bank online detector (rbsg+detector and
	// srbsg+adaptive).
	Detector detector.Config
	// Level tunes the per-bank security-level controller (srbsg+adaptive
	// only; zero fields take seclevel defaults).
	Level seclevel.Config
	// OnLevelChange, when set, observes every applied security-level
	// transition (srbsg+adaptive only). It runs on the bank's actor
	// goroutine, so it must not block; memctld uses it to log level-change
	// events.
	OnLevelChange func(bank int, d seclevel.Decision)
}

func (c *Config) normalize() error {
	if c.Banks <= 0 {
		c.Banks = 8
	}
	if c.Lines == 0 {
		c.Lines = uint64(c.Banks) << 14
	}
	if c.Lines%uint64(c.Banks) != 0 {
		return fmt.Errorf("memserver: %d lines do not divide across %d banks", c.Lines, c.Banks)
	}
	if c.Scheme == "" {
		c.Scheme = SchemeRBSGDetector
	}
	per := c.Lines / uint64(c.Banks)
	if c.Scheme != SchemeNone && per&(per-1) != 0 {
		return fmt.Errorf("memserver: per-bank lines %d must be a power of two for scheme %q", per, c.Scheme)
	}
	if c.Regions == 0 {
		c.Regions = 32
	}
	if c.Interval == 0 {
		c.Interval = 100
	}
	if c.Stages <= 0 {
		c.Stages = 7
	}
	if c.Endurance == 0 {
		c.Endurance = 1 << 30
	}
	if c.LineBytes <= 0 {
		c.LineBytes = 256
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = 8192
	}
	return nil
}

// Server is the memory-controller service: routing, actors, telemetry.
type Server struct {
	cfg       Config
	mem       *membank.Memory
	actors    []*actor
	detectors []*detector.AdaptiveRBSG // nil entries when the scheme has no detector
	adaptives []*seclevel.Adaptive     // nil entries when the scheme has no level controller
	draining  atomic.Bool
	started   atomic.Bool

	// The binary listener (binary.go) and its serving counters.
	bin        *ConnServer
	binFrames  atomic.Uint64 // frames processed on the binary listener
	binRejects atomic.Uint64 // frames rejected before execution (malformed, skewed, oversized, bad op)
	binLineOps atomic.Uint64 // line ops applied via the binary protocol
}

// New builds a server (actors not yet running; call Start).
func New(cfg Config) (*Server, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:       cfg,
		detectors: make([]*detector.AdaptiveRBSG, cfg.Banks),
		adaptives: make([]*seclevel.Adaptive, cfg.Banks),
	}
	s.bin = NewConnServer(s.newBinConn, &s.binRejects, "server draining")
	factory := func(bank int, lines uint64) (wear.Scheme, error) {
		seed := cfg.Seed + uint64(bank)
		switch cfg.Scheme {
		case SchemeNone:
			return wear.NewPassthrough(lines), nil
		case SchemeRBSG:
			return rbsg.New(rbsg.Config{
				Lines: lines, Regions: cfg.Regions, Interval: cfg.Interval, Seed: seed,
			})
		case SchemeSecurityRBSG:
			return core.New(core.Config{
				Lines: lines, Regions: cfg.Regions,
				InnerInterval: cfg.Interval, OuterInterval: cfg.Interval,
				Stages: cfg.Stages, Seed: seed,
			})
		case SchemeAdaptive:
			ad, err := seclevel.NewAdaptive(seclevel.AdaptiveConfig{
				Scheme: core.Config{
					Lines: lines, Regions: cfg.Regions,
					InnerInterval: cfg.Interval, OuterInterval: cfg.Interval,
					Stages: cfg.Stages, Seed: seed,
				},
				Detector: cfg.Detector,
				Level:    cfg.Level,
			})
			if err != nil {
				return nil, err
			}
			if cb := cfg.OnLevelChange; cb != nil {
				b := bank // the hook outlives the loop variable's iteration
				ad.Controller().OnApply = func(d seclevel.Decision) { cb(b, d) }
			}
			s.adaptives[bank] = ad
			return ad, nil
		case SchemeRBSGDetector:
			base, err := rbsg.New(rbsg.Config{
				Lines: lines, Regions: cfg.Regions, Interval: cfg.Interval, Seed: seed,
			})
			if err != nil {
				return nil, err
			}
			det, err := detector.NewAdaptiveRBSG(base, cfg.Detector)
			if err != nil {
				return nil, err
			}
			s.detectors[bank] = det
			return det, nil
		default:
			return nil, fmt.Errorf("memserver: unknown scheme %q", cfg.Scheme)
		}
	}
	bankCfg := pcm.Config{
		LineBytes: cfg.LineBytes,
		Endurance: cfg.Endurance,
		Timing:    pcm.DefaultTiming,
	}
	mem, err := membank.New(cfg.Banks, cfg.Lines, bankCfg, factory)
	if err != nil {
		return nil, err
	}
	s.mem = mem
	s.actors = make([]*actor, cfg.Banks)
	for i := range s.actors {
		s.actors[i] = newActor(i, mem.Bank(i), s.detectors[i], s.adaptives[i], cfg.QueueDepth, cfg.SnapshotEvery)
	}
	return s, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config) *Server {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Config returns the normalized configuration.
func (s *Server) Config() Config { return s.cfg }

// Memory exposes the underlying sharded memory. Callers must not drive
// it while actors are running — it is for post-drain inspection.
func (s *Server) Memory() *membank.Memory { return s.mem }

// Start launches one actor goroutine per bank.
func (s *Server) Start() {
	if s.started.Swap(true) {
		return
	}
	for _, a := range s.actors {
		go a.run()
	}
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain stops accepting requests, lets every queued request finish, and
// waits for all actors to exit (or ctx to expire). The binary listener
// must already be shut down: Drain closes the bank queues, and a
// concurrent submit on a closed queue would be rejected only by the
// draining flag, which an in-flight handler may have checked earlier.
func (s *Server) Drain(ctx context.Context) error {
	if s.draining.Swap(true) {
		return nil
	}
	if !s.started.Load() {
		return nil
	}
	for _, a := range s.actors {
		close(a.ch)
	}
	for _, a := range s.actors {
		select {
		case <-a.done:
		case <-ctx.Done():
			return fmt.Errorf("memserver: drain: bank %d still busy: %w", a.bank, ctx.Err())
		}
	}
	return nil
}

// errBusy marks a rejected (queue-full) submission.
var errBusy = fmt.Errorf("memserver: bank queue full")

// enqueue submits run to its bank's actor without blocking, so the
// batch path keeps all touched banks in flight at once; a full queue
// answers errBusy, surfaced as a Nack. On success the actor owns
// run until it calls done.Done, so the caller must have counted the run
// in done beforehand; on an error no actor will.
func (s *Server) enqueue(run *bankRun, done *sync.WaitGroup) error {
	if s.draining.Load() {
		return errDraining
	}
	a := s.actors[run.bank]
	select {
	case a.ch <- bankReq{run: run, done: done}:
		return nil
	default:
		a.rejected.Add(1)
		return errBusy
	}
}

var errDraining = fmt.Errorf("memserver: draining")
