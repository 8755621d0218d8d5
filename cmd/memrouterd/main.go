// Command memrouterd runs the shard router: a stateless binary-protocol
// front for N memctld shards. Clients speak the same wire protocol they
// would speak to a single memctld, served by the same connection loop
// (internal/memserver's ConnServer, up to memserver.FrameWindow frames
// in flight per client connection); the router splits each batch across
// the shards named by its bank-group map, pipelines the sub-batches
// over pooled connections, and merges the responses back in op order.
//
// The control plane is HTTP: GET /healthz (503 until every shard passes
// its probe, 503 while draining) and GET /metrics (router_* series plus
// every shard's memctld_* series re-labeled with shard="N").
//
// SIGINT/SIGTERM drains gracefully: the client listener closes, every
// in-flight frame finishes against still-running shards, then the pools
// close. Deployment drain order is therefore router FIRST, shards after
// — the router needs live shards to finish its frames.
//
// Usage:
//
//	memrouterd -shards 127.0.0.1:8101,127.0.0.1:8201 \
//	    -shard-control 127.0.0.1:8100,127.0.0.1:8200 \
//	    -lines $((1<<21)) -binary-addr 127.0.0.1:9101
//	memrouterd -shards ... -binary-addr 127.0.0.1:0 \
//	    -binary-addr-file /tmp/router.bin              # scripted runs
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"securityrbsg/internal/memrouter"
	"securityrbsg/internal/memserver"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9100", "control-plane listen address (port 0 picks a free port)")
	addrFile := flag.String("addr-file", "", "write the bound control address to this file (for scripts)")
	binAddr := flag.String("binary-addr", "127.0.0.1:9101", "binary data-plane listen address")
	binAddrFile := flag.String("binary-addr-file", "", "write the bound binary address to this file (for scripts)")
	shards := flag.String("shards", "", "comma-separated shard binary addresses, indexed by shard number (required)")
	shardCtl := flag.String("shard-control", "", "comma-separated shard HTTP control addresses, aligned with -shards (empty = liveness-only health, no metric aggregation)")
	lines := flag.Uint64("lines", 1<<20, "total logical lines routed (must divide evenly into groups)")
	groups := flag.Int("groups", 0, "bank groups in the address map (0 = one per shard)")
	groupMap := flag.String("group-map", "", "comma-separated shard index per group (empty = rendezvous-hash assignment)")
	conns := flag.Int("conns", 2, "pooled connections per shard")
	window := flag.Int("window", 32, "in-flight frame window per shard connection")
	healthEvery := flag.Duration("health-every", 2*time.Second, "shard health-probe period")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful-drain deadline")
	flag.Parse()

	requireAddr("-addr", *addr)
	requireAddr("-binary-addr", *binAddr)
	if *shards == "" {
		fatal(fmt.Errorf("-shards is required"))
	}
	cfg := memrouter.Config{
		Shards:       splitList(*shards),
		ShardControl: splitList(*shardCtl),
		Lines:        *lines,
		Groups:       *groups,
		Conns:        *conns,
		Window:       *window,
		HealthEvery:  *healthEvery,
	}
	if *groupMap != "" {
		for _, f := range splitList(*groupMap) {
			s, err := strconv.Atoi(f)
			if err != nil {
				fatal(fmt.Errorf("-group-map entry %q: %w", f, err))
			}
			cfg.GroupMap = append(cfg.GroupMap, s)
		}
	}
	r, err := memrouter.New(cfg)
	if err != nil {
		fatal(err)
	}

	// Catch SIGINT/SIGTERM before anything can report readiness: a
	// signal sent the moment an address file appears must drain the
	// router, not kill it. An early signal waits in sigc until serving
	// is set up.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			fatal(err)
		}
	}
	bln, err := net.Listen("tcp", *binAddr)
	if err != nil {
		fatal(fmt.Errorf("binary listen: %w", err))
	}
	if *binAddrFile != "" {
		if err := os.WriteFile(*binAddrFile, []byte(bln.Addr().String()), 0o644); err != nil {
			fatal(err)
		}
	}

	r.Start()
	httpSrv := &http.Server{Handler: r.Handler()}
	errc := make(chan error, 2)
	go func() { errc <- httpSrv.Serve(ln) }()
	go func() {
		if err := r.ServeBinary(bln); err != nil {
			errc <- fmt.Errorf("binary serve: %w", err)
		}
	}()

	m := r.Map()
	fmt.Fprintf(os.Stderr, "memrouterd: control on %s, binary on %s — %d lines over %d shards (%d groups)\n",
		ln.Addr(), bln.Addr(), m.Lines(), m.Shards(), m.Groups())

	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "memrouterd: %v — draining\n", sig)
	case err := <-errc:
		fatal(err)
	}

	// Drain order: the router's own frontend first (in-flight frames
	// finish against still-live shards), control plane after — so
	// /metrics stays scrapable until the data plane is quiet.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := r.Shutdown(ctx); err != nil {
		fatal(fmt.Errorf("drain: %w", err))
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		fatal(fmt.Errorf("http shutdown: %w", err))
	}
	printSummary(r)
	fmt.Fprintln(os.Stderr, "memrouterd: drained cleanly")
}

// printSummary reports the routing totals on exit.
func printSummary(r *memrouter.Router) {
	totals := memserver.ParseMetrics(r.MetricsText())
	fmt.Fprintf(os.Stderr,
		"memrouterd: routed %0.f frames (%0.f split across shards), %0.f line ops; %0.f rejected, %0.f nacked, %0.f shard errors\n",
		totals["router_frames_total"],
		totals["router_split_frames_total"],
		totals["router_line_ops_total"],
		totals["router_reject_total"],
		totals["router_nack_total"],
		totals["router_shard_errors_total"])
}

// splitList parses a comma-separated flag, tolerating blanks.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// requireAddr exits when the listen-address flag name is empty:
// net.Listen("tcp", "") would bind every interface on a random port.
func requireAddr(name, addr string) {
	if addr == "" {
		fatal(fmt.Errorf("%s is empty; give host:port (port 0 picks a free port)", name))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "memrouterd:", err)
	os.Exit(1)
}
