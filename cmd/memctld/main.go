// Command memctld runs the memory-controller daemon: a sharded,
// wear-leveled PCM memory (each bank with its own state and one writer,
// the paper's "managed in the memory controller, each bank separately";
// one executor goroutine per core runs every W-th bank) behind two
// listeners.
//
// The data plane, -binary-addr, is the binary batch protocol
// (length-prefixed frames, see internal/memserver wire.go) that
// loadgen, binprobe and memrouterd speak. A bank that already holds
// -queue runs not yet started refuses its share of a frame, answered by
// a Nack frame carrying a retry-after. The control plane, -addr, is
// HTTP: GET /healthz and GET /metrics (Prometheus text). SIGINT/SIGTERM
// drains gracefully: the listeners stop, admitted runs finish, final
// per-bank telemetry is printed.
//
// Usage:
//
//	memctld -banks 8 -lines $((1<<20))   # control 127.0.0.1:8100, data 127.0.0.1:8101
//	memctld -addr 127.0.0.1:0 -addr-file /tmp/addr \
//	    -binary-addr 127.0.0.1:0 -binary-addr-file /tmp/bin   # scripted runs
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // profiling endpoints, served only when -pprof is set
	"os"
	"os/signal"
	"syscall"
	"time"

	"securityrbsg/internal/detector"
	"securityrbsg/internal/memserver"
	"securityrbsg/internal/pcm"
	"securityrbsg/internal/seclevel"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8100", "HTTP control-plane listen address (port 0 picks a free port)")
	addrFile := flag.String("addr-file", "", "write the bound control address to this file (for scripts)")
	binAddr := flag.String("binary-addr", "127.0.0.1:8101", "binary data-plane listen address (port 0 picks a free port)")
	binAddrFile := flag.String("binary-addr-file", "", "write the bound binary address to this file (for scripts)")
	banks := flag.Int("banks", 8, "number of independently wear-leveled banks")
	lines := flag.Uint64("lines", 1<<20, "total logical lines (lines/banks must be a power of two)")
	scheme := flag.String("scheme", memserver.SchemeRBSGDetector, "none|rbsg|rbsg+detector|srbsg|srbsg+adaptive")
	regions := flag.Uint64("regions", 32, "wear-leveling regions per bank")
	interval := flag.Uint64("interval", 100, "remapping interval ψ")
	stages := flag.Int("stages", 7, "DFN stages (srbsg)")
	seed := flag.Uint64("seed", 1, "key seed (bank i uses seed+i)")
	endurance := flag.Uint64("endurance", pcm.MaxEndurance, "per-line endurance, 1 to 2^30−2 (default: the maximum)")
	queue := flag.Int("queue", 256, "per-bank queue depth: runs admitted and not yet started")
	detWindow := flag.Uint64("detector-window", 0, "detector observation window in writes (0 = default)")
	detBoost := flag.Uint64("detector-boost", 0, "detector remapping-rate boost (0 = default)")
	levelPolicy := flag.String("level-policy", "", "srbsg+adaptive decision policy: hysteresis|aggressive|static (empty = hysteresis)")
	levelMin := flag.Int("level-min", 0, "srbsg+adaptive minimum DFN stage count (0 = default)")
	levelMax := flag.Int("level-max", 0, "srbsg+adaptive maximum DFN stage count (0 = default)")
	levelRaise := flag.Float64("level-raise-rate", 0, "alarm rate (crossings/window) that escalates (0 = default)")
	levelLower := flag.Float64("level-lower-rate", 0, "alarm rate at or below which the level relaxes (default 0: fully quiet)")
	levelStep := flag.Int("level-step", 0, "stages added per escalation (0 = default)")
	levelCooldown := flag.Uint64("level-cooldown", 0, "remap rounds between level transitions (0 = default)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful-drain deadline")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (default off; keep it loopback)")
	flag.Parse()
	requireAddr("-addr", *addr)
	requireAddr("-binary-addr", *binAddr)

	srv, err := memserver.New(memserver.Config{
		Banks: *banks, Lines: *lines, Scheme: *scheme,
		Regions: *regions, Interval: *interval, Stages: *stages,
		Seed: *seed, Endurance: *endurance, QueueDepth: *queue,
		Detector: detector.Config{Window: *detWindow, Boost: *detBoost},
		Level: seclevel.Config{
			Policy:   *levelPolicy,
			MinLevel: *levelMin, MaxLevel: *levelMax,
			RaiseRate: *levelRaise, LowerRate: *levelLower,
			Step: *levelStep, CooldownRounds: *levelCooldown,
		},
		// Level-change events are the operator-visible trail of the
		// adaptive loop. The hook runs on the executor that owns the
		// bank, and a blocking hook stalls every bank of that executor,
		// so keep it to one line of stderr.
		OnLevelChange: func(bank int, d seclevel.Decision) {
			fmt.Fprintf(os.Stderr, "memctld: bank %d level change: %s\n", bank, d)
		},
	})
	if err != nil {
		fatal(err)
	}

	// Catch SIGINT/SIGTERM before anything can report readiness: a
	// signal sent the moment an address file appears must drain the
	// daemon, not kill it. An early signal waits in sigc until serving
	// is set up.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound), 0o644); err != nil {
			fatal(err)
		}
	}

	// The profiler gets its own listener, never the service mux: the
	// debug surface must not be reachable through the served API port.
	// net/http/pprof registers on DefaultServeMux at import time, so
	// serving the default mux here is the whole wiring.
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fatal(fmt.Errorf("pprof listen: %w", err))
		}
		fmt.Fprintf(os.Stderr, "memctld: pprof on http://%s/debug/pprof/\n", pln.Addr())
		go func() {
			if err := http.Serve(pln, nil); err != nil {
				fmt.Fprintln(os.Stderr, "memctld: pprof server:", err)
			}
		}()
	}

	srv.Start()
	httpSrv := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	bln, err := net.Listen("tcp", *binAddr)
	if err != nil {
		fatal(fmt.Errorf("binary listen: %w", err))
	}
	if *binAddrFile != "" {
		if err := os.WriteFile(*binAddrFile, []byte(bln.Addr().String()), 0o644); err != nil {
			fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "memctld: binary protocol on %s\n", bln.Addr())
	go func() {
		if err := srv.ServeBinary(bln); err != nil {
			errc <- fmt.Errorf("binary serve: %w", err)
		}
	}()

	cfg := srv.Config()
	fmt.Fprintf(os.Stderr, "memctld: listening on %s — %d banks × %d lines, scheme %s (regions %d, interval %d)\n",
		bound, cfg.Banks, cfg.Lines/uint64(cfg.Banks), cfg.Scheme, cfg.Regions, cfg.Interval)

	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "memctld: %v — draining\n", sig)
	case err := <-errc:
		fatal(err)
	}

	// Drain order: stop both listeners first (in-flight frames finish
	// against still-running executors), then close the executor queues,
	// let them run dry and take a final snapshot of every bank.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fatal(fmt.Errorf("http shutdown: %w", err))
	}
	if err := srv.ShutdownBinary(ctx); err != nil {
		fatal(err)
	}
	if err := srv.Drain(ctx); err != nil {
		fatal(err)
	}
	printSummary(srv)
	fmt.Fprintln(os.Stderr, "memctld: drained cleanly")
}

// printSummary reports the per-bank telemetry the batch tools compute
// post-hoc, plus the totals.
func printSummary(srv *memserver.Server) {
	totals := memserver.ParseMetrics(srv.MetricsText())
	fmt.Fprintf(os.Stderr,
		"memctld: served %0.f writes (%0.f SET / %0.f RESET), %0.f reads; %0.f remap events, %0.f detector alarms, %0.f rejected, %0.f failed lines\n",
		totals["memctld_demand_writes_total"],
		totals["memctld_set_writes_total"],
		totals["memctld_reset_writes_total"],
		totals["memctld_demand_reads_total"],
		totals["memctld_remap_events_total"],
		totals["memctld_detector_alarms_total"],
		totals["memctld_queue_rejected_total"],
		totals["memctld_failed_lines"])
	if srv.Config().Scheme == memserver.SchemeAdaptive {
		fmt.Fprintf(os.Stderr,
			"memctld: adaptive level: %0.f raises, %0.f lowers across banks\n",
			totals["memctld_level_raises_total"],
			totals["memctld_level_lowers_total"])
	}
}

// requireAddr exits when the listen-address flag name is empty:
// net.Listen("tcp", "") would bind every interface on a random port.
func requireAddr(name, addr string) {
	if addr == "" {
		fatal(fmt.Errorf("%s is empty; give host:port (port 0 picks a free port)", name))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "memctld:", err)
	os.Exit(1)
}
