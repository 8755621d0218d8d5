package main

import (
	"fmt"
	"sort"
	"strings"

	"securityrbsg/internal/experiments"
	"securityrbsg/internal/registry"
)

// metricDef describes one reported metric. bound (end-to-end metrics
// only) is the share of the parent's median by which the metric may get
// worse before a change counts as a regression; moves (per-layer
// metrics only) names the end-to-end metric and workloads the layer
// should move, written down before anything was measured.
type metricDef struct {
	name, unit, better string
	bound              float64
	moves              string
}

// endToEnd is what a user of the system sees. Every workload reports
// all of them; the tournament maps them onto its own unit of work (see
// README.md). The bounds are as wide as the reference host's noise
// requires (see the measured spreads in README.md).
var endToEnd = []metricDef{
	{name: "throughput_ops_s", unit: "1/s", better: "higher", bound: 0.24},
	{name: "latency_p50_us", unit: "us", better: "lower", bound: 0.24},
	{name: "latency_p90_us", unit: "us", better: "lower", bound: 0.24},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "rss_mb", unit: "MB", better: "lower", bound: 0.10},
}

const (
	servingAll = "serve_uniform, serve_routed, serve_attack_large"
	tournament = "sim_tournament"
)

// fixedLayers are the per-layer metrics of a traced run. A metric whose
// layer a workload does not exercise reads 0 there.
var fixedLayers = []metricDef{
	{name: "wire.send_us", unit: "us", better: "lower", moves: "latency_p50_us on serve_uniform"},
	{name: "wire.recv_us", unit: "us", better: "lower", moves: "latency_p50_us on serve_uniform"},
	{name: "server.wait_p50_us", unit: "us", better: "lower", moves: "latency_p50_us on " + servingAll},
	{name: "server.wait_p99_us", unit: "us", better: "lower", moves: "latency_p90_us on " + servingAll},
	{name: "memserver.frames", unit: "count", better: "higher", moves: "throughput_ops_s on " + servingAll},
	{name: "memserver.line_ops", unit: "count", better: "higher", moves: "throughput_ops_s on " + servingAll},
	{name: "memserver.queue_rejected", unit: "count", better: "lower", moves: "failed ops on " + servingAll},
	{name: "memserver.metrics_scrape_ms", unit: "ms", better: "lower", moves: "nothing end to end (control plane)"},
	{name: "wear.remaps_per_kwrite", unit: "1/kwrite", better: "lower", moves: "nothing: a speed-only change must leave it unchanged"},
	{name: "wear.device_writes_per_write", unit: "ratio", better: "lower", moves: "nothing: a speed-only change must leave it unchanged"},
	{name: "detector.alarms", unit: "count", better: "higher", moves: "latency_p90_us on serve_attack_large"},
	{name: "seclevel.raises", unit: "count", better: "higher", moves: "latency_p90_us on serve_attack_large"},
	{name: "seclevel.first_raise_s", unit: "s", better: "lower", moves: "latency_p90_us on serve_attack_large (the load's length when the level never rises)"},
	{name: "memrouter.split_frame_ratio", unit: "ratio", better: "lower", moves: "throughput_ops_s on serve_routed"},
	{name: "memrouter.nacks", unit: "count", better: "lower", moves: "failed ops on serve_routed"},
	{name: "memrouter.hop_ns_per_op", unit: "ns", better: "lower", moves: "throughput_ops_s on serve_routed, nothing on serve_uniform"},
	{name: "feistel.map_ns", unit: "ns", better: "lower", moves: "throughput_ops_s on serve_uniform"},
	{name: "core.translate_ns", unit: "ns", better: "lower", moves: "throughput_ops_s on serve_uniform"},
	{name: "feistel.fill_us", unit: "us", better: "lower", moves: "latency_p90_us on serve_attack_large, throughput_ops_s on sim_tournament, little on serve_uniform"},
	{name: "membank.write_ns", unit: "ns", better: "lower", moves: "throughput_ops_s on serve_uniform, serve_attack_large"},
	{name: "membank.read_ns", unit: "ns", better: "lower", moves: "throughput_ops_s on serve_uniform, serve_attack_large"},
	{name: "membank.cpu_share", unit: "ratio", better: "lower", moves: "throughput_ops_s on " + servingAll},
	{name: "runner.wall_s", unit: "s", better: "lower", moves: "throughput_ops_s on " + tournament},
	{name: "runner.utilization", unit: "ratio", better: "higher", moves: "throughput_ops_s on " + tournament},
	{name: "runner.critical_cell_s", unit: "s", better: "lower", moves: "throughput_ops_s, latency_p90_us on " + tournament},
	{name: "exactsim.writes_per_s", unit: "1/s", better: "higher", moves: "throughput_ops_s on " + tournament},
	{name: "trace.overhead_pct", unit: "%", better: "lower", moves: "nothing: traced minus untraced throughput"},
	{name: "trace.dropped_spans", unit: "count", better: "lower", moves: "nothing: spans past the recorder's capacity"},
}

// cellMetric names the per-cell wall-time metric of one tournament cell.
// Metric names admit only letters, digits, '_', '.' and '-'.
func cellMetric(scheme, attack string) string {
	clean := strings.NewReplacer("+", "_")
	return "registry.cell_s." + clean.Replace(scheme) + "." + clean.Replace(attack)
}

// perLayer is fixedLayers plus one wall-time metric per cell of the
// registry's exact-tier matrix.
func perLayer() ([]metricDef, error) {
	cells, err := experiments.TournamentCells(registry.Default, nil, nil)
	if err != nil {
		return nil, err
	}
	defs := append([]metricDef(nil), fixedLayers...)
	for _, c := range cells {
		defs = append(defs, metricDef{name: cellMetric(c.Scheme, c.Attack), unit: "s", better: "lower",
			moves: "throughput_ops_s on " + tournament})
	}
	return defs, nil
}

// result is one run of one workload.
type result struct {
	correct   bool
	attempted uint64
	failed    uint64
	metrics   map[string]float64
}

// complete checks that the run reports exactly the metrics of defs.
// With absentIsZero (per-layer metrics) a metric the run did not
// measure reads 0, meaning the workload does not exercise that layer.
func (r *result) complete(defs []metricDef, absentIsZero bool) error {
	known := map[string]bool{}
	var missing []string
	for _, d := range defs {
		known[d.name] = true
		if _, ok := r.metrics[d.name]; !ok {
			if !absentIsZero {
				missing = append(missing, d.name)
			}
			r.metrics[d.name] = 0
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("run did not measure %s", strings.Join(missing, ", "))
	}
	var stray []string
	for name := range r.metrics {
		if !known[name] {
			stray = append(stray, name)
		}
	}
	if len(stray) > 0 {
		sort.Strings(stray)
		return fmt.Errorf("metrics outside the declared set: %s", strings.Join(stray, ", "))
	}
	return nil
}
