package main

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// Serving load shape, shared by every serving workload.
const (
	conns        = 2 // one driver process, one connection per core of the reference host
	batchOps     = 256
	closedWindow = 8
	attackWindow = 4
	benignWindow = 1 // the attack workload's tenant waits for each answer
	benignOps    = 64
	// attackRate converts the warm-up and window durations into the
	// hammer's op counts that end a serve_attack_large load: about its
	// rate on the reference host, so the load lasts about as long as
	// asked there.
	attackRate = 2_500_000
)

var httpClient = &http.Client{Timeout: 10 * time.Second}

// servingSetups is how many times an untraced serving run starts its
// daemons; setup_s is the median start-up time.
const servingSetups = 5

// runServe runs one serving workload. Untraced, it starts the daemons
// servingSetups times and only the last set carries the load. Traced,
// it drives one fresh set untraced and another traced, so the tracing
// overhead compares like with like, and then measures the in-process
// ladder.
func runServe(w *workload, seed uint64, o *options) (*result, error) {
	res := &result{correct: true, metrics: map[string]float64{}}
	var setups []float64
	// serve starts w's daemons, drives them when load is set, and drains
	// them. Daemons started only to time their set-up are killed instead:
	// memctld reports itself ready a moment before it installs its
	// SIGTERM handler, so a drain requested at once can find the default
	// action still in place.
	serve := func(w *workload, load, traced bool) (*loadMeasure, error) {
		runDir := filepath.Join(o.work, "run", w.name)
		if err := os.MkdirAll(runDir, 0o755); err != nil {
			return nil, err
		}
		t, took, err := launch(w, seed, o.binDir, runDir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if !load {
			t.kill()
			return nil, nil
		}
		m, err := driveLoad(w, seed, t, o, traced)
		rss, serr := t.shutdown()
		if m != nil {
			m.rss = rss
			res.attempted += m.attempted
			res.failed += m.failed
		}
		return m, errors.Join(err, serr)
	}
	// fail marks the result incorrect once load has reached the daemons.
	fail := func(err error) (*result, error) {
		if res.attempted == 0 {
			return nil, err
		}
		res.correct = false
		return res, err
	}

	if !o.trace {
		for i := 1; i < servingSetups; i++ {
			if _, err := serve(w, false, false); err != nil {
				return nil, err
			}
		}
		m, err := serve(w, true, false)
		if err != nil {
			return fail(err)
		}
		var p50, p90 []float64
		for k := range m.lat {
			p50 = append(p50, quantile(m.lat[k], 0.50))
			p90 = append(p90, quantile(m.lat[k], 0.90))
		}
		res.metrics["throughput_ops_s"] = median(m.sliceTput[:])
		res.metrics["latency_p50_us"] = median(p50)
		res.metrics["latency_p90_us"] = median(p90)
		res.metrics["setup_s"] = median(setups)
		res.metrics["rss_mb"] = float64(m.rss) / 1e6
		return res, nil
	}

	base, err := serve(w, true, false)
	if err != nil {
		return fail(err)
	}
	traced, err := serve(w, true, true)
	if err != nil {
		return fail(err)
	}
	for k, v := range traced.layers {
		res.metrics[k] = v
	}
	res.metrics["trace.overhead_pct"] = (base.tput - traced.tput) / base.tput * 100
	if w.shards > 1 {
		// The router hop's cost per op: the same traffic and total
		// geometry served by one memctld without the router.
		direct := *w
		direct.name, direct.shards = w.name+"_direct", 1
		d, err := serve(&direct, true, false)
		if err != nil {
			return fail(fmt.Errorf("direct comparison run: %w", err))
		}
		res.metrics["memrouter.hop_ns_per_op"] = 1e9/base.tput - 1e9/d.tput
	}
	if err := ladder(w, seed, base.tput, res.metrics); err != nil {
		return fail(err)
	}
	return res, nil
}

// loadMeasure is what one driven load produced.
type loadMeasure struct {
	attempted, failed uint64
	rss               int64              // summed peak RSS of the topology, bytes
	tput              float64            // applied ops/s over the whole window
	sliceTput         [slices]float64    // applied ops/s in each slice
	lat               [slices][]float64  // benign frame latencies per slice, µs
	layers            map[string]float64 // traced loads only
}

// driveLoad drives conns connections against a ready topology, checks
// the server's own accounting against the driver's, and (traced)
// derives the per-layer metrics from spans and /metrics deltas.
func driveLoad(w *workload, seed uint64, t *topology, o *options, traced bool) (*loadMeasure, error) {
	var scrapeMs []float64
	scrapeAll := func() (map[string]float64, error) {
		sum := map[string]float64{}
		for _, d := range t.shards {
			m, took, err := scrape(d.ctl)
			if err != nil {
				return nil, err
			}
			scrapeMs = append(scrapeMs, float64(took)/1e6)
			for k, v := range m {
				sum[k] += v
			}
		}
		if t.router != nil {
			m, _, err := scrape(t.router.ctl)
			if err != nil {
				return nil, err
			}
			for k, v := range m {
				if strings.HasPrefix(k, "router_") {
					sum[k] += v
				}
			}
		}
		return sum, nil
	}
	before, err := scrapeAll()
	if err != nil {
		return nil, err
	}

	plans := make([]connPlan, conns)
	for c := range plans {
		hammer := w.attack && c == 1
		st, err := newStream(seed, c, conns, w.banks, w.lines, hammer)
		if err != nil {
			return nil, err
		}
		plans[c] = connPlan{st: st, ops: batchOps, window: closedWindow, benign: !hammer, marker: hammer}
		switch {
		case hammer:
			plans[c].window = attackWindow
		case w.attack:
			plans[c].ops, plans[c].window = benignOps, benignWindow
		}
		if need := 4 * closedWindow * batchOps; !hammer && int(w.lines)/conns < need {
			return nil, fmt.Errorf("%s: %d owned lines per connection, need at least %d so in-flight frames never exhaust them", w.name, int(w.lines)/conns, need)
		}
	}

	start := now()
	clk := timedClock(start, o.warmup, o.window)
	if w.attack {
		clk = markedClock(uint64(o.warmup.Seconds()*attackRate), uint64(o.window.Seconds()*attackRate),
			start.Add(maxMarkedLoad))
	}
	var rec *recorder
	if traced {
		rec = newRecorder(spanCapacity, start)
	}
	runSpan := rec.add(-1, "run", start, start)
	connSpans := make([]int32, conns)
	for c := range connSpans {
		name := "conn"
		if !plans[c].benign {
			name = "conn.attack"
		}
		connSpans[c] = rec.add(runSpan, name, start, start)
	}

	// In a traced load a 20 Hz poll times the first security-level raise.
	firstRaise := math.NaN()
	var pollMs []float64
	stopPoll := make(chan struct{})
	var pollWG sync.WaitGroup
	if traced {
		pollWG.Add(1)
		go func() {
			defer pollWG.Done()
			tick := time.NewTicker(50 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopPoll:
					return
				case <-tick.C:
				}
				var raises float64
				for _, d := range t.shards {
					if m, took, err := scrape(d.ctl); err == nil {
						raises += m["memctld_level_raises_total"]
						pollMs = append(pollMs, float64(took)/1e6)
					}
				}
				if raises > before["memctld_level_raises_total"] {
					firstRaise = now().Sub(start).Seconds()
					return
				}
			}
		}()
	}

	results := make([]connResult, conns)
	var wg sync.WaitGroup
	for c := range plans {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c] = driveConn(t.dataAddr(), plans[c], clk, rec, connSpans[c])
		}(c)
	}
	wg.Wait()
	loadEnd := now()
	close(stopPoll)
	pollWG.Wait()
	scrapeMs = append(scrapeMs, pollMs...)

	m := &loadMeasure{}
	var errs []error
	var applied uint64
	for c, r := range results {
		if r.err != nil {
			errs = append(errs, fmt.Errorf("connection %d: %w", c, r.err))
		}
		m.attempted += r.attempted
		m.failed += r.failed
		applied += r.attempted - r.failed
	}
	if err := errors.Join(errs...); err != nil {
		return m, err
	}
	if clk.bounds[slices].IsZero() {
		return m, fmt.Errorf("%s: the load stopped before its window ended", w.name)
	}
	var windowOps uint64
	for _, r := range results {
		for _, a := range r.frames {
			k := clk.slice(a.done)
			if k < 0 {
				continue
			}
			windowOps += uint64(a.applied)
			m.sliceTput[k] += float64(a.applied)
			if a.benign {
				m.lat[k] = append(m.lat[k], a.lat)
			}
		}
	}
	for k := range m.sliceTput {
		m.sliceTput[k] /= clk.bounds[k+1].Sub(clk.bounds[k]).Seconds()
		if len(m.lat[k]) == 0 {
			return m, fmt.Errorf("%s: no benign frame answered inside slice %d of the window", w.name, k)
		}
	}
	m.tput = float64(windowOps) / clk.bounds[slices].Sub(clk.bounds[0]).Seconds()

	after, err := scrapeAll()
	if err != nil {
		return m, err
	}
	delta := func(k string) float64 { return after[k] - before[k] }
	// The server boundary must account for exactly what the driver saw.
	if got := delta("memctld_binary_line_ops_total"); got != float64(applied) {
		return m, fmt.Errorf("shards report %.0f line ops applied, the driver saw %d", got, applied)
	}
	if t.router != nil {
		if got := delta("router_line_ops_total"); got != float64(m.attempted) {
			return m, fmt.Errorf("router reports %.0f line ops routed, the driver sent %d", got, m.attempted)
		}
	}
	if !traced {
		return m, nil
	}

	rec.spans[runSpan].end = int64(loadEnd.Sub(start))
	for _, id := range connSpans {
		rec.spans[id].end = int64(loadEnd.Sub(start))
	}
	l := spanLayers(rec)
	m.layers = l
	l["trace.dropped_spans"] = float64(rec.dropped.Load())
	l["memserver.frames"] = delta("memctld_binary_frames_total")
	l["memserver.line_ops"] = delta("memctld_binary_line_ops_total")
	l["memserver.queue_rejected"] = delta("memctld_queue_rejected_total")
	l["memserver.metrics_scrape_ms"] = median(scrapeMs)
	if dw := delta("memctld_demand_writes_total"); dw > 0 {
		l["wear.remaps_per_kwrite"] = delta("memctld_remap_events_total") / dw * 1000
		l["wear.device_writes_per_write"] = delta("memctld_device_writes_total") / dw
	}
	l["detector.alarms"] = delta("memctld_detector_alarms_total")
	l["seclevel.raises"] = delta("memctld_level_raises_total")
	l["seclevel.first_raise_s"] = firstRaise
	if math.IsNaN(firstRaise) { // never rose: censored at the load's length
		l["seclevel.first_raise_s"] = loadEnd.Sub(start).Seconds()
	}
	if t.router != nil {
		if fr := delta("router_frames_total"); fr > 0 {
			l["memrouter.split_frame_ratio"] = delta("router_split_frames_total") / fr
		}
		l["memrouter.nacks"] = delta("router_nack_total")
	}
	if o.traceDir != "" {
		if err := writeSpans(o.traceDir, w.name, rec); err != nil {
			return m, err
		}
	}
	return m, nil
}

// maxMarkedLoad bounds a marked load that the server serves too slowly
// to reach its last mark.
const maxMarkedLoad = 120 * time.Second

// spanCapacity bounds a traced serving load's spans (~40 MB).
const spanCapacity = 1 << 20

// spanLayers turns the benign connections' frame spans into per-layer
// metrics: the median self time of send and receive, and the median and
// 99th percentile of the server wait.
func spanLayers(rec *recorder) map[string]float64 {
	spans := rec.recorded()
	self := selfTimes(spans)
	by := map[string][]float64{}
	for i, s := range spans {
		if s.parent < 0 {
			continue
		}
		fr := spans[s.parent]
		if fr.name != "frame" || fr.parent < 0 || spans[fr.parent].name != "conn" {
			continue
		}
		by[s.name] = append(by[s.name], float64(self[i])/1e3)
	}
	out := map[string]float64{}
	if xs := by["wire.send"]; len(xs) > 0 {
		out["wire.send_us"] = median(xs)
	}
	if xs := by["wire.recv"]; len(xs) > 0 {
		out["wire.recv_us"] = median(xs)
	}
	if xs := by["server.wait"]; len(xs) > 0 {
		out["server.wait_p50_us"] = quantile(xs, 0.50)
		out["server.wait_p99_us"] = quantile(xs, 0.99)
	}
	return out
}
