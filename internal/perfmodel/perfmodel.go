// Package perfmodel is the substitute for the paper's Gem5 experiment
// (Section V-C-4): it measures the IPC degradation a wear-leveling layer
// inflicts on ordinary multicore workloads.
//
// The modeled system mirrors the paper's platform at the granularity that
// matters to the measurement: 8 cores at 1 GHz (1 cycle = 1 ns), an 8 MB
// DRAM L3 cache in front of PCM, a 32-entry memory-controller queue with
// posted writes, a 10 ns address-translation latency on every PCM access,
// and remapping movements that occupy the bank — but, exactly as the
// paper observes for sparse applications, overlap with idle periods for
// free ("the remapping requests can be serviced during the idle periods").
//
// Cores execute one instruction per cycle between memory events (the
// baseline and wear-leveled runs share this assumption, so it cancels in
// the degradation ratio). Reads block the issuing core; writebacks are
// posted and only stall when the write queue is full.
package perfmodel

import (
	"fmt"
	"sort"

	"securityrbsg/internal/pcm"
	"securityrbsg/internal/wear"
	"securityrbsg/internal/workload"
)

// Config describes the modeled platform.
type Config struct {
	// Cores is the number of cores sharing the memory controller (8).
	Cores int
	// QueueDepth is the posted-write queue length (32).
	QueueDepth int
	// TranslationNs is the wear-leveling address-translation latency
	// added to every PCM access (10 ns per the paper: one cycle per DFN
	// stage plus an SRAM isRemap lookup).
	TranslationNs uint64
	// L3Lines is the DRAM-cache capacity in lines (8 MB / 256 B = 32768).
	L3Lines uint64
	// L3HitNs is the DRAM-cache hit latency.
	L3HitNs uint64
	// MemLines is the simulated PCM logical size (footprints wrap into it).
	MemLines uint64
	// RequestsPerCore is how many post-L3 memory requests each core
	// simulates.
	RequestsPerCore uint64
	// Banks is the number of PCM banks requests interleave across (line
	// mod Banks). Requests to different banks overlap; a remapping
	// movement still halts the whole controller, as the paper assumes.
	// 1 keeps the single-bank model.
	Banks int
	// Seed seeds the workload generators.
	Seed uint64
}

// DefaultConfig mirrors the paper's experimental platform.
func DefaultConfig() Config {
	return Config{
		Cores:           8,
		QueueDepth:      32,
		TranslationNs:   10,
		L3Lines:         32768,
		L3HitNs:         50,
		MemLines:        1 << 16,
		RequestsPerCore: 20000,
		Banks:           1,
		Seed:            1,
	}
}

// Result reports one benchmark's IPC impact.
type Result struct {
	Name           string
	Suite          string
	BaselineIPC    float64
	SchemeIPC      float64
	DegradationPct float64 // 100 · (1 − SchemeIPC/BaselineIPC)
}

// SchemeFactory builds a fresh wear-leveling scheme for a memory of n
// logical lines (a fresh instance per run keeps runs independent).
type SchemeFactory func(lines uint64) (wear.Scheme, error)

// simCore is one simulated core's state.
type simCore struct {
	gen     *workload.Generator
	timeNs  uint64
	instrs  uint64
	done    uint64
	hitProb float64
}

// machine is the shared memory-controller state.
type machine struct {
	ctrl       *wear.Controller
	bankFreeAt []uint64 // per-bank busy horizon
	writeQ     []uint64 // completion times of posted writes, sorted
	queueDepth int
}

// l3HitProb estimates the DRAM-cache hit probability from the benchmark
// footprint: capacity-resident working sets hit ~98% of the time, and
// streaming sets fall toward 85% (an 8 MB DRAM cache filters most reuse
// even for large footprints; the paper's <0.5% SPEC degradation implies
// PCM-visible request rates well below the classic L2 MPKIs).
func l3HitProb(p workload.Profile, l3Lines uint64) float64 {
	ratio := float64(l3Lines) / float64(p.Footprint)
	if ratio > 1 {
		ratio = 1
	}
	return 0.85 + 0.13*ratio
}

// service performs one PCM access at the given core time and returns the
// request's completion time plus whether it triggered a remapping
// movement (which halts the controller, blocking even posted writes).
func (m *machine) service(now uint64, line uint64, write bool) (completion uint64, remapped bool) {
	bank := int(line) % len(m.bankFreeAt)
	start := now
	if m.bankFreeAt[bank] > start {
		start = m.bankFreeAt[bank]
	}
	events := m.ctrl.RemapEvents()
	var lat uint64
	if write {
		lat = m.ctrl.Write(line, pcm.Mixed)
	} else {
		_, lat = m.ctrl.Read(line)
	}
	done := start + lat
	m.bankFreeAt[bank] = done
	remapped = m.ctrl.RemapEvents() != events
	if remapped {
		// The movement halts the controller: every bank is busy until the
		// data migration completes.
		for b := range m.bankFreeAt {
			if m.bankFreeAt[b] < done {
				m.bankFreeAt[b] = done
			}
		}
	}
	return done, remapped
}

// drainWrites pops completed posted writes and returns the stall time (0
// if the queue has room at `now`).
func (m *machine) admitWrite(now, completion uint64) (stallUntil uint64) {
	q := m.writeQ[:0]
	for _, c := range m.writeQ {
		if c > now {
			q = append(q, c)
		}
	}
	m.writeQ = q
	if len(m.writeQ) >= m.queueDepth {
		stallUntil = m.writeQ[0]
		m.writeQ = m.writeQ[1:]
	}
	m.writeQ = append(m.writeQ, completion)
	sort.Slice(m.writeQ, func(i, j int) bool { return m.writeQ[i] < m.writeQ[j] })
	return stallUntil
}

// simulate runs all cores against one controller and returns the mean
// per-core IPC.
func simulate(cfg Config, prof workload.Profile, ctrl *wear.Controller) float64 {
	cores := make([]*simCore, cfg.Cores)
	for i := range cores {
		cores[i] = &simCore{
			gen:     workload.NewGenerator(prof, cfg.MemLines, cfg.Seed+uint64(i)*1000003),
			hitProb: l3HitProb(prof, cfg.L3Lines),
		}
	}
	banks := cfg.Banks
	if banks <= 0 {
		banks = 1
	}
	m := &machine{ctrl: ctrl, bankFreeAt: make([]uint64, banks), queueDepth: cfg.QueueDepth}
	remaining := uint64(cfg.Cores) * cfg.RequestsPerCore
	for remaining > 0 {
		// Advance the core with the earliest local time.
		c := cores[0]
		for _, cc := range cores[1:] {
			if cc.done < cfg.RequestsPerCore && (c.done >= cfg.RequestsPerCore || cc.timeNs < c.timeNs) {
				c = cc
			}
		}
		acc := c.gen.Next()
		c.timeNs += acc.Gap // compute phase: 1 instruction per cycle
		c.instrs += acc.Gap
		// DRAM-cache filter.
		if hashHit(acc.Line, c.done, c.hitProb) {
			c.timeNs += cfg.L3HitNs
		} else if acc.Write {
			done, remapped := m.service(c.timeNs, acc.Line%ctrl.Scheme().LogicalLines(), true)
			if remapped {
				// The movement halts the controller: the posted write's
				// issuer stalls until the data migration completes.
				c.timeNs = done
			} else if stall := m.admitWrite(c.timeNs, done); stall > c.timeNs {
				c.timeNs = stall
			}
		} else {
			c.timeNs, _ = m.service(c.timeNs, acc.Line%ctrl.Scheme().LogicalLines(), false)
		}
		c.done++
		remaining--
	}
	var ipc float64
	for _, c := range cores {
		if c.timeNs > 0 {
			ipc += float64(c.instrs) / float64(c.timeNs)
		}
	}
	return ipc / float64(cfg.Cores)
}

// hashHit is a deterministic pseudo-random L3 hit draw so the baseline
// and scheme runs see identical hit/miss sequences.
func hashHit(line, n uint64, p float64) bool {
	x := line*0x9e3779b97f4a7c15 + n*0xbf58476d1ce4e5b9
	x ^= x >> 29
	x *= 0x94d049bb133111eb
	x ^= x >> 32
	return float64(x&0xffffff)/float64(1<<24) < p
}

// RunBenchmark measures one benchmark's IPC under the factory's scheme
// versus the no-wear-leveling baseline.
func RunBenchmark(cfg Config, prof workload.Profile, factory SchemeFactory) (Result, error) {
	baseCtrl, err := wear.NewController(pcm.Config{
		Endurance: pcm.MaxEndurance, Timing: pcm.DefaultTiming,
	}, wear.NewPassthrough(cfg.MemLines))
	if err != nil {
		return Result{}, err
	}
	baseIPC := simulate(cfg, prof, baseCtrl)

	scheme, err := factory(cfg.MemLines)
	if err != nil {
		return Result{}, err
	}
	ctrl, err := wear.NewController(pcm.Config{
		Endurance: pcm.MaxEndurance, Timing: pcm.DefaultTiming,
	}, scheme)
	if err != nil {
		return Result{}, err
	}
	ctrl.TranslationNs = cfg.TranslationNs
	ipc := simulate(cfg, prof, ctrl)

	return Result{
		Name:           prof.Name,
		Suite:          prof.Suite,
		BaselineIPC:    baseIPC,
		SchemeIPC:      ipc,
		DegradationPct: 100 * (1 - ipc/baseIPC),
	}, nil
}

// RunSuite measures every profile and returns per-benchmark results plus
// the suite-average degradation.
func RunSuite(cfg Config, profs []workload.Profile, factory SchemeFactory) ([]Result, float64, error) {
	results := make([]Result, 0, len(profs))
	var sum float64
	for _, p := range profs {
		r, err := RunBenchmark(cfg, p, factory)
		if err != nil {
			return nil, 0, fmt.Errorf("perfmodel: %s: %w", p.Name, err)
		}
		results = append(results, r)
		sum += r.DegradationPct
	}
	return results, sum / float64(len(profs)), nil
}
