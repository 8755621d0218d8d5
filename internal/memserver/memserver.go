// Package memserver turns the batch simulator into a long-running
// memory-controller service: a membank.Memory whose banks each have a
// single writer behind the binary wire protocol, its one data plane,
// with a stdlib net/http control plane (/healthz, /metrics). It is also
// the one implementation of that wire — codec (wire.go), connection
// server (conn.go) and client (binaryclient.go) — which
// internal/memrouter serves and dials through.
//
// The paper deploys Security RBSG "in the memory controller, managing
// each bank separately" (Section IV-A); memserver is that controller as
// an online system. Each bank keeps its own wear.Controller, scheme,
// detector and telemetry, and exactly one goroutine ever touches them:
// the executor that owns the bank. The server runs W = min(GOMAXPROCS,
// Banks) executors, and executor i owns every bank b ≡ i (mod W) for
// its whole lifetime — so the existing non-thread-safe scheme/PCM code
// runs unmodified and unlocked, and the paper's bank-isolation property
// holds by construction: no request ever touches a bank other than the
// one it addresses, and every op's simulated latency depends only on
// its own bank's history. In wall time, banks that share an executor
// share one FIFO.
//
// Requests enter through bounded per-bank admission: a bank admits at
// most QueueDepth runs not yet started, and a full bank is explicit
// backpressure (a Nack frame), never an unbounded goroutine pileup.
// Batches are coalesced per bank — one run per touched bank, preserving
// per-bank op order — and each touched executor gets one message with
// all of its banks' runs, so a batch wakes at most W goroutines and
// waits once for all of them.
//
// Telemetry the batch tools compute only post-hoc is published live:
// each bank's executor periodically (and at drain) publishes an
// immutable BankSnapshot through an atomic pointer, so /metrics never
// blocks on — or races with — the simulation hot path.
package memserver

import (
	"context"
	"fmt"
	"runtime"
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
	// Endurance is per-line write endurance, at most pcm.MaxEndurance
	// (the default, 2^30 − 2, so a demo server does not wear out mid-run;
	// lower it to study failures).
	Endurance uint64
	// QueueDepth bounds each bank's admission: the runs (one per batch
	// touching the bank) admitted and not yet started by the bank's
	// executor (default 256). A batch whose run finds the bank full gets
	// that bank's share refused whole, in a Nack.
	QueueDepth int
	// SnapshotEvery is how many ops a bank executes between telemetry
	// snapshots (default 8192; tests set 1 for exact live metrics). The
	// wear percentiles read every line of the bank, so they refresh only
	// every max(SnapshotEvery, lines per bank) ops; like every other
	// field they are exact after drain.
	SnapshotEvery uint64
	// OnLevelChange, when set, observes every applied security-level
	// transition (srbsg+adaptive only). It runs on the executor that owns
	// the bank, so it must not block: a blocking hook stalls every bank of
	// that executor. memctld uses it to log level-change events.
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
		c.Endurance = pcm.MaxEndurance
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = 8192
	}
	return nil
}

// Server is the memory-controller service: routing, executors,
// telemetry.
type Server struct {
	cfg      Config
	mem      *membank.Memory
	banks    []*bankState
	execs    []*executor
	draining atomic.Bool
	started  atomic.Bool

	// The binary listener (binary.go) and its serving counters.
	bin        *ConnServer
	binFrames  atomic.Uint64 // frames processed on the binary listener
	binRejects atomic.Uint64 // frames rejected before execution (malformed, skewed, oversized, bad op)
	binLineOps atomic.Uint64 // line ops applied via the binary protocol
}

// New builds a server (executors not yet running; call Start).
func New(cfg Config) (*Server, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg}
	detectors := make([]*detector.AdaptiveRBSG, cfg.Banks) // nil entries when the scheme has no detector
	adaptives := make([]*seclevel.Adaptive, cfg.Banks)     // nil entries when the scheme has no level controller
	s.bin = NewConnServer(s.newBinConn, &s.binRejects, "server draining")
	// Security RBSG banks evaluate their DFN per op (NoTableCache): one
	// bank's per-round tables would not stay in cache beside the others'.
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
				Stages: cfg.Stages, Seed: seed, NoTableCache: true,
			})
		case SchemeAdaptive:
			ad, err := seclevel.NewAdaptive(seclevel.AdaptiveConfig{
				Scheme: core.Config{
					Lines: lines, Regions: cfg.Regions,
					InnerInterval: cfg.Interval, OuterInterval: cfg.Interval,
					Stages: cfg.Stages, Seed: seed, NoTableCache: true,
				},
			})
			if err != nil {
				return nil, err
			}
			if cb := cfg.OnLevelChange; cb != nil {
				b := bank // the hook outlives the loop variable's iteration
				ad.Controller().OnApply = func(d seclevel.Decision) { cb(b, d) }
			}
			adaptives[bank] = ad
			return ad, nil
		case SchemeRBSGDetector:
			base, err := rbsg.New(rbsg.Config{
				Lines: lines, Regions: cfg.Regions, Interval: cfg.Interval, Seed: seed,
			})
			if err != nil {
				return nil, err
			}
			det, err := detector.NewAdaptiveRBSG(base, detector.Config{})
			if err != nil {
				return nil, err
			}
			detectors[bank] = det
			return det, nil
		default:
			return nil, fmt.Errorf("memserver: unknown scheme %q", cfg.Scheme)
		}
	}
	bankCfg := pcm.Config{
		Endurance: cfg.Endurance,
		Timing:    pcm.DefaultTiming,
	}
	mem, err := membank.New(cfg.Banks, cfg.Lines, bankCfg, factory)
	if err != nil {
		return nil, err
	}
	s.mem = mem
	s.banks = make([]*bankState, cfg.Banks)
	s.execs = make([]*executor, min(runtime.GOMAXPROCS(0), cfg.Banks))
	for i := range s.execs {
		s.execs[i] = &executor{done: make(chan struct{})}
	}
	for b := range s.banks {
		s.banks[b] = newBankState(b, mem.Bank(b), detectors[b], adaptives[b], cfg.SnapshotEvery)
		e := s.execs[s.owner(b)]
		e.banks = append(e.banks, s.banks[b])
	}
	for _, e := range s.execs {
		// A queued message carries at least one run its executor has not
		// started, and each bank admits at most QueueDepth of those, so
		// this capacity makes admission the only way a run is refused: a
		// send on the queue never blocks.
		e.ch = make(chan *execBatch, cfg.QueueDepth*len(e.banks))
		e.due = make([]*bankState, 0, len(e.banks))
	}
	return s, nil
}

// owner is the ownership rule: the index of the executor that runs
// bank b.
func (s *Server) owner(b int) int { return b % len(s.execs) }

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
// it while executors are running — it is for post-drain inspection.
func (s *Server) Memory() *membank.Memory { return s.mem }

// Start launches the executor goroutines.
func (s *Server) Start() {
	if s.started.Swap(true) {
		return
	}
	for _, e := range s.execs {
		go e.run()
	}
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain stops accepting requests, lets every admitted run finish, and
// waits for every executor to publish its banks' final snapshots and
// exit (or ctx to expire). The binary listener must already be shut
// down: Drain closes the executor queues, and only the draining flag
// keeps a submitter off a closed queue — a flag an in-flight handler
// may have checked before Drain set it.
func (s *Server) Drain(ctx context.Context) error {
	if s.draining.Swap(true) {
		return nil
	}
	if !s.started.Load() {
		return nil
	}
	for _, e := range s.execs {
		close(e.ch)
	}
	for i, e := range s.execs {
		select {
		case <-e.done:
		case <-ctx.Done():
			return fmt.Errorf("memserver: drain: executor %d still busy: %w", i, ctx.Err())
		}
	}
	return nil
}
