// Command loadgen is a closed-loop, multi-worker client for memctld:
// the repo's end-to-end throughput benchmark. Each worker issues
// batches and immediately issues the next when the previous completes,
// so offered load tracks server capacity.
//
// The data plane is the binary batch protocol (memctld -binary-addr,
// or a memrouterd front), one framed TCP connection per worker. With
// -window N each worker pipelines up to N batches in flight on its
// connection instead of waiting out a round trip per batch — the
// client-side half of the protocol's in-order pipelining contract.
// Health checks and metrics go over the HTTP control plane (-addr).
//
// Streams (-pattern):
//
//	uniform  — independent uniform lines, MIXED data: benign traffic
//	           that spreads across banks and regions (detector stays quiet)
//	hotspot  — Zipf-distributed lines: skewed but honest traffic
//	attack   — every worker hammers one line with ALL-1 data, the
//	           repeated-address shape of the paper's RAA; the per-bank
//	           detector must alarm on it
//	escalate — starts uniform and progressively concentrates on one
//	           line over -ramp ops per worker: an attack emerging from
//	           benign cover, the stream the adaptive security level
//	           (memctld -scheme srbsg+adaptive) is built to answer
//
// After the run it prints sustained line-ops/s, a wall-clock latency
// histogram with p50/p90/p99, and the server-side /metrics counters
// (remap events, detector alarms, wear percentiles). For the attack and
// escalate streams it also reports the time to first escalation: how
// long until the server's level_raises_total counter first moved.
//
// Usage:
//
//	loadgen -addr http://127.0.0.1:8100 -binary-addr 127.0.0.1:8101 -duration 5s
//	loadgen -pattern attack -duration 2s
//	loadgen -window 16 -duration 5s    # pipelined frames
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"securityrbsg/internal/memserver"
	"securityrbsg/internal/stats"
	"securityrbsg/internal/workload"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8100", "memctld control-plane base URL (health and metrics)")
	binAddr := flag.String("binary-addr", "127.0.0.1:8101", "memctld or memrouterd binary listener host:port")
	window := flag.Int("window", 1, "in-flight batches per worker (1 = lockstep closed loop)")
	workers := flag.Int("workers", 8, "concurrent closed-loop workers")
	duration := flag.Duration("duration", 5*time.Second, "run length")
	batch := flag.Int("batch", 256, "lines per batch frame")
	pattern := flag.String("pattern", "uniform", "uniform|hotspot|attack|escalate")
	readShare := flag.Float64("reads", 0.0, "fraction of ops issued as reads")
	zipfS := flag.Float64("zipf", 1.2, "Zipf skew for -pattern hotspot")
	ramp := flag.Uint64("ramp", 50_000, "ops per worker over which -pattern escalate ramps to a pure hammer")
	seed := flag.Uint64("seed", 1, "address-stream seed")
	flag.Parse()

	if *window < 1 {
		fatal(fmt.Errorf("-window must be at least 1"))
	}
	client := memserver.NewClient(*addr)
	if err := client.Healthz(); err != nil {
		fatal(fmt.Errorf("server not healthy: %w", err))
	}
	before, err := client.Metrics()
	if err != nil {
		fatal(err)
	}
	lines := uint64(before["memctld_lines"])
	if lines == 0 {
		fatal(fmt.Errorf("server reports zero lines"))
	}

	var wg sync.WaitGroup
	results := make([]workerResult, *workers)
	//rbsglint:allow simdeterminism -- loadgen measures real wall-clock throughput of a live server; that is the product, not simulation state
	start := time.Now()
	deadline := start.Add(*duration)

	// For the attack-shaped streams, watch for the adaptive level's first
	// escalation while the load runs (no-op against non-adaptive schemes:
	// the counter never moves).
	var watcher *escalationWatcher
	if *pattern == "attack" || *pattern == "escalate" {
		watcher = watchEscalation(client, before["memctld_level_raises_total"], start, deadline)
	}
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w] = runWorker(workerConfig{
				id: w, binAddr: *binAddr,
				window: *window, lines: lines, batch: *batch,
				pattern: *pattern, readShare: *readShare,
				zipfS: *zipfS, ramp: *ramp, seed: *seed + uint64(w)*7919,
			}, deadline)
		}(w)
	}
	wg.Wait()
	//rbsglint:allow simdeterminism -- elapsed wall time is the denominator of the measured ops/s
	elapsed := time.Since(start)

	var total workerResult
	for _, r := range results {
		total.ops += r.ops
		total.rejected += r.rejected
		total.batches += r.batches
		total.latencies = append(total.latencies, r.latencies...)
	}
	opsPerSec := float64(total.ops) / elapsed.Seconds()
	fmt.Printf("loadgen: pattern=%s workers=%d batch=%d window=%d duration=%v\n",
		*pattern, *workers, *batch, *window, elapsed.Round(time.Millisecond))
	fmt.Printf("sustained: %.0f line-ops/s (%d ops in %d batches, %d rejected by backpressure)\n",
		opsPerSec, total.ops, total.batches, total.rejected)
	printLatency(total.latencies)

	after, err := client.Metrics()
	if err != nil {
		fatal(err)
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	fmt.Printf("server: +%.0f demand writes (+%.0f SET, +%.0f RESET), +%.0f remap events, +%.0f boosted moves\n",
		delta("memctld_demand_writes_total"), delta("memctld_set_writes_total"),
		delta("memctld_reset_writes_total"), delta("memctld_remap_events_total"),
		delta("memctld_detector_boosted_moves_total"))
	fmt.Printf("detector alarms: %.0f (run) / %.0f (lifetime)\n",
		delta("memctld_detector_alarms_total"), after["memctld_detector_alarms_total"])
	fmt.Printf("wear: p50 %.0f p90 %.0f p99 %.0f (per-bank sums), failed lines %.0f\n",
		after["memctld_wear_p50"], after["memctld_wear_p90"], after["memctld_wear_p99"],
		after["memctld_failed_lines"])
	if watcher != nil {
		if ttfe, writes, ok := watcher.wait(); ok {
			fmt.Printf("adaptive level: first escalation after %v (~%.0f demand writes); +%.0f raises, +%.0f lowers this run\n",
				ttfe.Round(time.Millisecond), writes,
				delta("memctld_level_raises_total"), delta("memctld_level_lowers_total"))
		} else if after["memctld_security_level"] > 0 {
			fmt.Printf("adaptive level: no escalation within %v\n", elapsed.Round(time.Millisecond))
		}
	}
}

// escalationWatcher polls /metrics until level_raises_total moves past
// its pre-run value, recording when (wall clock) and roughly how many
// demand writes the server had absorbed.
type escalationWatcher struct {
	done   chan struct{}
	ttfe   time.Duration
	writes float64
	ok     bool
}

func watchEscalation(c *memserver.Client, baseline float64, start, deadline time.Time) *escalationWatcher {
	w := &escalationWatcher{done: make(chan struct{})}
	go func() {
		defer close(w.done)
		//rbsglint:allow simdeterminism -- time-to-first-escalation is a wall-clock measurement of a live server
		for time.Now().Before(deadline) {
			m, err := c.Metrics()
			if err == nil && m["memctld_level_raises_total"] > baseline {
				//rbsglint:allow simdeterminism -- time-to-first-escalation is a wall-clock measurement of a live server
				w.ttfe = time.Since(start)
				w.writes = m["memctld_demand_writes_total"]
				w.ok = true
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	return w
}

// wait blocks until the watcher finishes (escalation seen or deadline).
func (w *escalationWatcher) wait() (time.Duration, float64, bool) {
	<-w.done
	return w.ttfe, w.writes, w.ok
}

type workerConfig struct {
	id        int
	binAddr   string
	window    int
	lines     uint64
	batch     int
	pattern   string
	readShare float64
	zipfS     float64
	ramp      uint64
	seed      uint64
}

type workerResult struct {
	ops       uint64
	batches   uint64
	rejected  uint64
	latencies []float64 // per-batch wall latency, microseconds
}

// addrStream builds the per-worker address generator for the pattern:
// the next-line function plus the data content every write carries.
func addrStream(cfg workerConfig, rng *stats.RNG) (next func() uint64, content uint8) {
	content = 2 // MIXED: ordinary data pays SET latency
	switch cfg.pattern {
	case "uniform":
		next = func() uint64 { return rng.Uint64n(cfg.lines) }
	case "hotspot":
		z := workload.NewZipf(cfg.lines, cfg.zipfS, cfg.seed)
		next = z.Next
	case "attack":
		// The RAA shape: every write lands on one logical line, ALL-1.
		// One line means one bank and one region — the concentration the
		// detector watches for.
		content = 1
		next = func() uint64 { return 0 }
	case "escalate":
		// An attack emerging from benign cover: op n hammers line 0 with
		// probability n/ramp (else a uniform line), so the stream starts
		// indistinguishable from uniform and ramps to a pure RAA. The
		// adaptive level should escalate partway up the ramp.
		var issued uint64
		ramp := cfg.ramp
		if ramp == 0 {
			ramp = 1
		}
		next = func() uint64 {
			hammerP := float64(issued) / float64(ramp)
			issued++
			if hammerP >= 1 || rng.Float64() < hammerP {
				return 0
			}
			return rng.Uint64n(cfg.lines)
		}
	default:
		fatal(fmt.Errorf("unknown pattern %q", cfg.pattern))
	}
	return next, content
}

// fillBatch populates ops from the stream, flipping the read share.
func fillBatch(ops []memserver.BatchOp, next func() uint64, content uint8, readShare float64, rng *stats.RNG) {
	for i := range ops {
		ops[i] = memserver.BatchOp{Line: next(), Data: content}
		if readShare > 0 && rng.Float64() < readShare {
			ops[i].Read = true
			ops[i].Data = 0
		}
	}
}

// runWorker is one closed loop on its own binary connection: keep up
// to cfg.window batches in flight — send until the window is full, then
// complete the oldest before sending the next — until the deadline.
// Responses arrive in send order (the wire contract), so a FIFO of send
// timestamps is the only bookkeeping. Reported batch latency therefore
// includes time queued behind the window — the client-visible latency
// of a pipelined deployment; with -window 1 it is the plain round trip.
func runWorker(cfg workerConfig, deadline time.Time) workerResult {
	bc, err := memserver.DialBinary(cfg.binAddr)
	if err != nil {
		fatal(fmt.Errorf("worker %d: %w", cfg.id, err))
	}
	defer bc.Close()
	rng := stats.NewRNG(cfg.seed)
	next, content := addrStream(cfg, rng)

	var res workerResult
	var resp memserver.BatchResponse
	var backoff time.Duration
	t0s := make([]time.Time, 0, cfg.window)
	recvOne := func() {
		err := bc.RecvBatch(&resp)
		//rbsglint:allow simdeterminism -- batch wall latency is the measured quantity (p50/p90/p99 report)
		lat := time.Since(t0s[0])
		t0s = t0s[1:]
		res.batches++
		if be, ok := err.(*memserver.BackpressureError); ok {
			if be.Resp != nil {
				res.ops += uint64(be.Resp.Applied)
				res.rejected += uint64(be.Resp.Rejected)
			} else {
				res.rejected += uint64(cfg.batch)
			}
			if be.RetryAfter > backoff {
				backoff = be.RetryAfter
			}
			return
		}
		if err != nil {
			fatal(fmt.Errorf("worker %d: %w", cfg.id, err))
		}
		res.ops += uint64(resp.Applied)
		res.latencies = append(res.latencies, float64(lat.Microseconds()))
	}

	ops := make([]memserver.BatchOp, cfg.batch)
	//rbsglint:allow simdeterminism -- closed-loop deadline check against real time; the benchmark runs for a wall-clock duration
	for time.Now().Before(deadline) {
		if backoff > 0 {
			// Honor the server's Retry-After before offering more load,
			// but only once the pipe is empty — frames already in flight
			// still have to be received in order.
			for len(t0s) > 0 {
				recvOne()
			}
			d := backoff
			backoff = 0
			time.Sleep(d)
			continue
		}
		if len(t0s) == cfg.window {
			recvOne()
			continue
		}
		fillBatch(ops, next, content, cfg.readShare, rng)
		//rbsglint:allow simdeterminism -- send timestamp anchors the measured batch wall latency
		t0s = append(t0s, time.Now())
		if err := bc.SendBatch(ops); err != nil {
			fatal(fmt.Errorf("worker %d: %w", cfg.id, err))
		}
	}
	for len(t0s) > 0 {
		recvOne()
	}
	return res
}

// printLatency reports percentiles and a compact bucket histogram of
// per-batch wall latency.
func printLatency(lat []float64) {
	if len(lat) == 0 {
		fmt.Println("latency: no completed batches")
		return
	}
	sort.Float64s(lat)
	q := func(p float64) float64 { return lat[int(p*float64(len(lat)-1))] }
	fmt.Printf("batch latency µs: p50 %.0f p90 %.0f p99 %.0f max %.0f\n",
		q(0.50), q(0.90), q(0.99), lat[len(lat)-1])
	h := stats.NewHistogram(0, lat[len(lat)-1]+1, 10)
	for _, v := range lat {
		h.Add(v)
	}
	width := (h.Hi - h.Lo) / float64(len(h.Buckets))
	for i, n := range h.Buckets {
		if n == 0 {
			continue
		}
		fmt.Printf("  [%6.0f–%6.0f µs) %6d %s\n",
			h.Lo+float64(i)*width, h.Lo+float64(i+1)*width, n, bar(n, uint64(len(lat))))
	}
}

func bar(n, total uint64) string {
	const maxBar = 40
	w := int(float64(n) / float64(total) * maxBar)
	out := make([]byte, w)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(1)
}
