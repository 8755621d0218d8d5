# Local targets mirror .github/workflows/ci.yml exactly: the CI jobs
# invoke these same targets, so a green `make ci` locally means a green
# pipeline.

GO ?= go

.PHONY: build fmt fmt-check vet lint unlinked test race race-sweep fuzz-smoke bench-smoke bench-test bench-record bench-gate profile serve serve-smoke adaptive-smoke router-smoke loadgen tournament-smoke ci

build:
	$(GO) build ./...

# fmt rewrites; fmt-check (what CI runs) only fails on drift.
fmt:
	gofmt -l -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# rbsglint enforces the repo's four mechanized contracts: determinism,
# bank isolation, panic policy and hot-path allocations (see DESIGN.md
# "Mechanized invariants"). One run covers the module and writes
# rbsglint-findings.json (empty array when clean; CI uploads it as an
# artifact); exit 2 means violations, 1 a load or driver error.
# staticcheck and govulncheck run when installed (CI installs them);
# offline dev boxes without them still get the custom suite.
lint:
	$(GO) run ./cmd/rbsglint -out rbsglint-findings.json ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else echo "lint: staticcheck not installed; skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else echo "lint: govulncheck not installed; skipping"; fi

# Report the internal/ functions no binary links (the 13 commands and
# bench/rbsgbench, built with inlining off), with line counts and
# totals. A report, not a gate: it fails only when a build fails.
unlinked:
	./scripts/unlinked.sh

test: build vet
	$(GO) test ./...

# The second line reruns memserver's executor tests at three executor
# counts: one executor, an uneven split of 64 banks (22/21/21), and more
# executors than the host has cores.
race:
	$(GO) test -race -short ./...
	$(GO) test -race -short -cpu 1,3,4 -run '^(TestConcurrentSubmitters|TestBinaryRTARecoversSequence|TestHealthzAndDrain)$$' ./internal/memserver/

# Second race pass: the exact tier's parallel sub-region sweep kernel,
# sharded across up to 64 goroutines — the shape most likely to surface
# a pcm.Shard ownership race — and two shards split at an odd line, as
# the kernel splits a bank, written at once: adjacent shards' boundary
# lines must not share memory. Mirrors the CI race job's second step.
race-sweep:
	$(GO) test -race -run 'TestParallelSweep' ./internal/exactsim/
	$(GO) test -race -run '^TestShardsSplitAtOddBoundary$$' ./internal/pcm/

# Fuzz every Fuzz* target for FUZZTIME (default 10s) each; plain
# `go test` only replays their seed corpora. A crasher lands in the
# package's testdata/fuzz/ (CI uploads it as an artifact).
fuzz-smoke:
	./scripts/fuzz_smoke.sh

# Every benchmark must at least execute once without panicking.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# The benchmark module's own suite. bench/ is a module of its own, so
# the root `go test ./...` never reaches it: the wire differential, the
# span self-time test, the corrupted-response check and a -smoke run of
# all four workloads with their output checks.
bench-test:
	cd bench && $(GO) test ./...

# Re-record the committed benchmark baseline (BENCH_16.json). Run on a
# quiet machine; commit the result with an explanation of what moved.
bench-record:
	./scripts/bench_record.sh

# Compare the guard benchmarks against the committed baseline; fails on
# >15% ns/op regression or any allocs/op growth. BENCHGATE_SKIP=1 to
# override, BENCHGATE_MAX_REGRESS to widen (see DESIGN.md).
bench-gate:
	./scripts/bench_gate.sh

# Capture a CPU profile of memctld's binary listener under loadgen at
# the benchmark's serve_uniform shape (writes cpu.pprof).
profile:
	./scripts/profile.sh

# Run the memory-controller daemon with defaults: the binary listener
# `make loadgen` drives is on 127.0.0.1:8101 (Ctrl-C drains).
serve:
	$(GO) run ./cmd/memctld

# Drive a running memctld with the default closed-loop benign stream.
loadgen:
	$(GO) run ./cmd/loadgen

# End-to-end server check: boot memctld, probe its binary listener,
# drive it with loadgen under benign and attack streams, assert
# detector + metrics + clean drain.
serve-smoke:
	./scripts/serve_smoke.sh

# Closed-loop adaptive-level check: boot memctld with -scheme
# srbsg+adaptive, assert a benign stream never raises the level and the
# escalating attack stream raises it at least once (with loadgen
# reporting the time to first escalation), then drain cleanly.
adaptive-smoke:
	./scripts/adaptive_smoke.sh

# Distributed serving check: three memctld shard processes behind a
# memrouterd, booted via waitready; binprobe and loadgen drive the
# benign and attack streams entirely through the router, the shard-
# labeled metric passthrough proves where the traffic landed, and the
# topology drains router-first on SIGTERM.
router-smoke:
	./scripts/router_smoke.sh

# Full registered scheme×attack matrix at smoke scale (2^10 lines)
# through cmd/tournament: every playable registry cell must complete,
# the CSV must match its pinned SHA-256, and a -workers 1 rerun must
# emit a byte-identical CSV. One more play at the sim_tournament
# benchmark's geometry (2^14 lines, endurance 10^5) must match its
# pinned SHA-256 too.
tournament-smoke:
	./scripts/tournament_smoke.sh

ci: fmt-check test lint unlinked race race-sweep fuzz-smoke bench-smoke bench-test bench-gate serve-smoke adaptive-smoke router-smoke tournament-smoke
