package memserver

import (
	"fmt"
	"net/http"
	"strings"
)

// handleMetrics renders Prometheus-style text metrics. Everything comes
// from the actors' published snapshots plus a handful of submitter-side
// atomics, so scraping never blocks the simulation hot path and keeps
// working after a drain (the final snapshot is exact).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	var b strings.Builder
	s.renderMetrics(&b)
	fmt.Fprint(w, b.String())
}

// MetricsText returns the /metrics payload (used by tests and tooling).
func (s *Server) MetricsText() string {
	var b strings.Builder
	s.renderMetrics(&b)
	return b.String()
}

func (s *Server) renderMetrics(b *strings.Builder) {
	gauge := func(name, help string, v uint64) {
		fmt.Fprintf(b, "# HELP memctld_%s %s\n# TYPE memctld_%s gauge\nmemctld_%s %d\n",
			name, help, name, name, v)
	}
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(b, "# HELP memctld_%s %s\n# TYPE memctld_%s counter\nmemctld_%s %d\n",
			name, help, name, name, v)
	}
	gauge("banks", "Number of independently wear-leveled banks.", uint64(s.cfg.Banks))
	gauge("lines", "Total logical line count across banks.", s.cfg.Lines)
	draining := uint64(0)
	if s.Draining() {
		draining = 1
	}
	gauge("draining", "1 while the server drains, else 0.", draining)

	// Serving counters: the binary listener's frame and reject totals,
	// and the line ops applied through it (which track
	// demand_writes_total + demand_reads_total).
	counter("binary_frames_total", "Frames processed on the binary listener.", s.binFrames.Load())
	counter("binary_reject_total", "Binary frames rejected before execution (malformed, version-skewed, oversized, or bad op).", s.binRejects.Load())
	counter("binary_line_ops_total", "Line ops applied via the binary protocol.", s.binLineOps.Load())

	type metric struct {
		name, help, kind string
		value            func(a *actor, snap *BankSnapshot) uint64
	}
	metrics := []metric{
		{"demand_writes_total", "Demand writes served.", "counter",
			func(a *actor, s *BankSnapshot) uint64 { return s.Stats.DemandWrites }},
		{"demand_reads_total", "Demand reads served.", "counter",
			func(a *actor, s *BankSnapshot) uint64 { return s.Stats.DemandReads }},
		{"set_writes_total", "Demand writes paying the SET latency (ALL-1 or MIXED).", "counter",
			func(a *actor, s *BankSnapshot) uint64 { return s.SetWrites }},
		{"reset_writes_total", "Demand writes paying only the RESET latency (ALL-0).", "counter",
			func(a *actor, s *BankSnapshot) uint64 { return s.ResetWrites }},
		{"remap_events_total", "Writes that triggered wear-leveling movements.", "counter",
			func(a *actor, s *BankSnapshot) uint64 { return s.Stats.RemapEvents }},
		{"remap_ns_total", "Simulated nanoseconds spent in remapping movements.", "counter",
			func(a *actor, s *BankSnapshot) uint64 { return s.Stats.RemapNs }},
		{"device_writes_total", "Device-level writes (demand + remapping).", "counter",
			func(a *actor, s *BankSnapshot) uint64 { return s.Stats.DeviceWrites }},
		{"device_reads_total", "Device-level reads (demand + remapping).", "counter",
			func(a *actor, s *BankSnapshot) uint64 { return s.Stats.DeviceReads }},
		{"sim_elapsed_ns_total", "Accumulated simulated device time in nanoseconds.", "counter",
			func(a *actor, s *BankSnapshot) uint64 { return s.Stats.ElapsedNs }},
		{"failed_lines", "Physical lines worn past endurance.", "gauge",
			func(a *actor, s *BankSnapshot) uint64 { return s.Stats.FailedLines }},
		{"detector_alarms_total", "Detector alarms raised (regions crossing the traffic-share threshold).", "counter",
			func(a *actor, s *BankSnapshot) uint64 { return s.Alarms }},
		{"detector_boosted_moves_total", "Extra gap movements issued while alarmed.", "counter",
			func(a *actor, s *BankSnapshot) uint64 { return s.BoostedMoves }},
		{"detector_alarmed_regions", "Regions currently under alarm.", "gauge",
			func(a *actor, s *BankSnapshot) uint64 { return uint64(s.AlarmedRegions) }},
		{"security_level", "DFN stage count currently in effect (srbsg+adaptive).", "gauge",
			func(a *actor, s *BankSnapshot) uint64 { return uint64(s.SecurityLevel) }},
		{"level_raises_total", "Security-level escalations applied by the controller.", "counter",
			func(a *actor, s *BankSnapshot) uint64 { return s.LevelRaises }},
		{"level_lowers_total", "Security-level relaxations applied by the controller.", "counter",
			func(a *actor, s *BankSnapshot) uint64 { return s.LevelLowers }},
		{"wear_max", "Highest wear count of any physical line.", "gauge",
			func(a *actor, s *BankSnapshot) uint64 { return s.Stats.MaxWear }},
		{"wear_p50", "Median wear count over physical lines, refreshed every max(SnapshotEvery, lines per bank) ops and exact after drain.", "gauge",
			func(a *actor, s *BankSnapshot) uint64 { return s.WearP50 }},
		{"wear_p90", "90th-percentile wear count over physical lines, refreshed every max(SnapshotEvery, lines per bank) ops and exact after drain.", "gauge",
			func(a *actor, s *BankSnapshot) uint64 { return s.WearP90 }},
		{"wear_p99", "99th-percentile wear count over physical lines, refreshed every max(SnapshotEvery, lines per bank) ops and exact after drain.", "gauge",
			func(a *actor, s *BankSnapshot) uint64 { return s.WearP99 }},
		{"queue_depth", "Requests currently queued for the bank's actor.", "gauge",
			func(a *actor, s *BankSnapshot) uint64 { return uint64(len(a.ch)) }},
		{"queue_rejected_total", "Submissions rejected with backpressure (Nack).", "counter",
			func(a *actor, s *BankSnapshot) uint64 { return a.rejected.Load() }},
	}
	for _, m := range metrics {
		fmt.Fprintf(b, "# HELP memctld_%s %s\n# TYPE memctld_%s %s\n", m.name, m.help, m.name, m.kind)
		for _, a := range s.actors {
			fmt.Fprintf(b, "memctld_%s{bank=%q} %d\n", m.name, fmt.Sprint(a.bank), m.value(a, a.Snapshot()))
		}
	}
}

// ParseMetrics parses a Prometheus-style text payload into per-name
// totals, summing over labels — the aggregation tests and the load
// generator need ("how many alarms across all banks?").
func ParseMetrics(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		name := fields[0]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		var v float64
		if _, err := fmt.Sscanf(fields[1], "%g", &v); err != nil {
			continue
		}
		out[name] += v
	}
	return out
}
