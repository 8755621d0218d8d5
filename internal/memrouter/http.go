package memrouter

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"securityrbsg/internal/memserver"
)

// The router's HTTP control plane: /healthz aggregates shard health,
// /metrics serves the router's own series plus a shard-labeled
// passthrough of every shard's memctld_* series — so one scrape of the
// router sees the whole deployment, and tools that sum over labels
// (loadgen, the smoke scripts, ParseMetrics) read aggregate totals
// through the router exactly as they would off a single memctld.

// Handler returns the control-plane mux.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", r.handleHealthz)
	mux.HandleFunc("/metrics", r.handleMetrics)
	return mux
}

// healthLoop probes every shard each HealthEvery period. With a
// control-plane address the probe is the shard's own /healthz plus a
// line-count cross-check against the map (a shard configured with the
// wrong Lines would corrupt the address space silently — catch it
// here, loudly); without one it falls back to connection liveness.
func (r *Router) healthLoop() {
	defer r.healthWG.Done()
	client := &http.Client{Timeout: 2 * time.Second}
	probe := func() {
		for i := range r.cfg.Shards {
			h := r.probeShard(client, i)
			r.healthMu.Lock()
			r.health[i] = h
			r.healthMu.Unlock()
		}
	}
	probe()
	t := time.NewTicker(r.cfg.HealthEvery) //rbsglint:allow simdeterminism -- health probing is operational plumbing, not simulation state
	defer t.Stop()
	for {
		select {
		case <-r.stopHealth:
			return
		case <-t.C:
			probe()
		}
	}
}

// probeShard checks one shard's health.
func (r *Router) probeShard(client *http.Client, i int) shardHealth {
	if len(r.cfg.ShardControl) == 0 {
		if r.pools != nil && r.pools[i].healthy() {
			return shardHealth{ok: true}
		}
		return shardHealth{ok: false, detail: "no live binary connection"}
	}
	base := "http://" + r.cfg.ShardControl[i]
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		return shardHealth{ok: false, detail: err.Error()}
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return shardHealth{ok: false, detail: "healthz " + resp.Status}
	}
	text, err := r.scrapeShard(client, i)
	if err != nil {
		return shardHealth{ok: false, detail: err.Error()}
	}
	m := memserver.ParseMetrics(text)
	if got, want := uint64(m["memctld_lines"]), r.m.LocalLines(i); got != want {
		return shardHealth{ok: false, detail: fmt.Sprintf("shard has %d lines, map assigns %d", got, want)}
	}
	return shardHealth{ok: true}
}

// scrapeShard fetches one shard's raw /metrics text.
func (r *Router) scrapeShard(client *http.Client, i int) (string, error) {
	resp, err := client.Get("http://" + r.cfg.ShardControl[i] + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("metrics %s", resp.Status)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// Healthy reports whether every shard passed its last probe.
func (r *Router) Healthy() (ok bool, detail string) {
	r.healthMu.Lock()
	defer r.healthMu.Unlock()
	var bad []string
	for i, h := range r.health {
		if !h.ok {
			bad = append(bad, fmt.Sprintf("shard %d (%s): %s", i, r.cfg.Shards[i], h.detail))
		}
	}
	if len(bad) > 0 {
		return false, strings.Join(bad, "; ")
	}
	return true, ""
}

func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	if r.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	if ok, detail := r.Healthy(); !ok {
		http.Error(w, "unhealthy: "+detail, http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// MetricsText returns the /metrics payload (tests and tooling).
func (r *Router) MetricsText() string {
	var b strings.Builder
	r.renderMetrics(&b)
	return b.String()
}

func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	var b strings.Builder
	r.renderMetrics(&b)
	fmt.Fprint(w, b.String())
}

func (r *Router) renderMetrics(b *strings.Builder) {
	gauge := func(name, help string, v uint64) {
		fmt.Fprintf(b, "# HELP router_%s %s\n# TYPE router_%s gauge\nrouter_%s %d\n",
			name, help, name, name, v)
	}
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(b, "# HELP router_%s %s\n# TYPE router_%s counter\nrouter_%s %d\n",
			name, help, name, name, v)
	}
	gauge("shards", "Shards behind this router.", uint64(len(r.cfg.Shards)))
	gauge("groups", "Bank groups in the logical address map.", uint64(r.m.Groups()))
	gauge("lines", "Total logical lines routed.", r.m.Lines())
	draining := uint64(0)
	if r.Draining() {
		draining = 1
	}
	gauge("draining", "1 while the router drains, else 0.", draining)
	counter("frames_total", "Client frames processed.", r.frames.Load())
	counter("reject_total", "Client frames rejected before routing (malformed, version-skewed, oversized, bad op, draining).", r.rejects.Load())
	counter("nack_total", "Client frames answered with aggregated backpressure.", r.nacks.Load())
	counter("line_ops_total", "Line ops routed to shards.", r.lineOps.Load())
	counter("split_frames_total", "Client frames that touched more than one shard.", r.splitFr.Load())

	// Per-shard routing series, labeled by shard index.
	type metric struct {
		name, help, kind string
		value            func(p *shardPool) uint64
	}
	metrics := []metric{
		{"shard_line_ops_total", "Line ops routed to the shard.", "counter",
			func(p *shardPool) uint64 { return p.ops.Load() }},
		{"shard_nacks_total", "Sub-batches the shard answered with backpressure.", "counter",
			func(p *shardPool) uint64 { return p.nacks.Load() }},
		{"shard_errors_total", "Sub-batches lost to shard transport or protocol failure.", "counter",
			func(p *shardPool) uint64 { return p.errs.Load() }},
		{"shard_conns", "Live pooled connections to the shard.", "gauge",
			func(p *shardPool) uint64 { return uint64(p.up.Load()) }},
		{"shard_healthy", "1 while the shard passes health probes, else 0.", "gauge",
			func(p *shardPool) uint64 {
				r.healthMu.Lock()
				defer r.healthMu.Unlock()
				if r.health[p.shard].ok {
					return 1
				}
				return 0
			}},
	}
	if r.pools != nil {
		for _, m := range metrics {
			fmt.Fprintf(b, "# HELP router_%s %s\n# TYPE router_%s %s\n", m.name, m.help, m.name, m.kind)
			for _, p := range r.pools {
				fmt.Fprintf(b, "router_%s{shard=%q} %d\n", m.name, fmt.Sprint(p.shard), m.value(p))
			}
		}
	}

	// Shard passthrough: every shard's memctld_* series re-emitted with
	// a shard label. Summing over labels (which is what ParseMetrics
	// does) yields deployment-wide totals, so loadgen's alarm and line
	// reads work unchanged through the router.
	if len(r.cfg.ShardControl) == 0 {
		return
	}
	client := &http.Client{Timeout: 2 * time.Second}
	texts := make([]string, len(r.cfg.ShardControl))
	for i := range texts {
		// A failed scrape leaves the text empty: the health probe
		// reports the outage and /metrics stays partial.
		texts[i], _ = r.scrapeShard(client, i)
	}
	mergeShardMetrics(b, texts)
}

// mergeShardMetrics re-emits the shards' metrics texts family by
// family, as the text format requires: each family's HELP/TYPE lines
// once, then its samples from every shard in shard order, with a
// shard=N label spliced into each.
func mergeShardMetrics(b *strings.Builder, texts []string) {
	type family struct {
		owner           int // the first shard to send the family supplies its header
		header, samples []string
	}
	fams := map[string]*family{}
	var order []string
	open := func(name string, shard int) *family {
		f := fams[name]
		if f == nil {
			f = &family{owner: shard}
			fams[name] = f
			order = append(order, name)
		}
		return f
	}
	for shard, text := range texts {
		label := fmt.Sprintf("shard=%q", fmt.Sprint(shard))
		var cur *family
		for _, line := range strings.Split(text, "\n") {
			line = strings.TrimSpace(line)
			if strings.HasPrefix(line, "#") {
				// "# HELP name ..." / "# TYPE name kind" open the family
				// every sample up to the next header belongs to.
				if fields := strings.Fields(line); len(fields) >= 3 {
					if cur = open(fields[2], shard); cur.owner == shard {
						cur.header = append(cur.header, line)
					}
				}
				continue
			}
			i := strings.IndexAny(line, "{ ")
			if i < 0 {
				continue
			}
			if cur == nil {
				cur = open(line[:i], shard)
			}
			if line[i] == '{' {
				line = line[:i] + "{" + label + "," + line[i+1:]
			} else {
				line = line[:i] + "{" + label + "}" + line[i:]
			}
			cur.samples = append(cur.samples, line)
		}
	}
	for _, name := range order {
		for _, line := range fams[name].header {
			fmt.Fprintln(b, line)
		}
		for _, line := range fams[name].samples {
			fmt.Fprintln(b, line)
		}
	}
}
