#!/usr/bin/env bash
# CI perf-regression gate: re-run the guard benchmarks and compare
# against the committed baseline. Fails when a guard's ns/op regresses
# more than 15% (or its allocs/op grows at all).
#
# Overrides (documented in DESIGN.md "Performance engineering"):
#   BENCHGATE_SKIP=1            skip the gate (e.g. known-noisy runner)
#   BENCHGATE_MAX_REGRESS=0.30  widen the ns/op threshold
#   BENCH_BASELINE=BENCH_13.json compare against a different baseline
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "${BENCHGATE_SKIP:-0}" = "1" ]; then
    echo "bench-gate: skipped (BENCHGATE_SKIP=1)"
    exit 0
fi

baseline="${BENCH_BASELINE:-BENCH_16.json}"
# The designated guards (see bench_test.go and the per-package
# bench/clientbench files, "perf-gate guard benchmarks"): pure mapping
# kernel, both per-access paths, the end-to-end Monte-Carlo kernel, the
# exact tier's bulk-write and epoch fast-forward kernels, the binary
# frame path under the static and the adaptive scheme, the frame
# decode, the lockstep and pipelined wire clients (real loopback TCP),
# and the router in front of 1 and 3 shards. allocs/op must match the
# baseline exactly, which holds the frame, decode, client and router
# paths at zero allocs/op: in particular the adaptive controller must
# add no allocation over the static scheme's frame path.
guards='BenchmarkFeistelMapTable,BenchmarkTranslateSecurityRBSG,BenchmarkControllerWrite,BenchmarkLifetimeRAAScaled,BenchmarkBankWriteN,BenchmarkExactEpochFastForward,BenchmarkBinaryBatchWrite,BenchmarkBinaryBatchWriteAdaptive,BenchmarkBinaryDecodeFrame,BenchmarkBinaryClientLockstep,BenchmarkBinaryClientPipelined,BenchmarkRouterBatch1Shard,BenchmarkRouterBatch3Shards'
regex="^($(echo "$guards" | tr ',' '|'))\$"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

go test -run '^$' -bench "$regex" -benchmem \
    -benchtime "${BENCH_TIME:-1s}" -count "${BENCH_COUNT:-3}" \
    . ./internal/memserver/ ./internal/memrouter/ | tee "$tmp"
go run ./cmd/benchdiff -baseline "$baseline" -guard "$guards" "$tmp"

# The distribution asserts need cores to scale onto: pipelining hides
# round-trip latency only when client and server can overlap, and three
# shards beat one only when the shard actors actually run in parallel.
# On runners with too few cores both ratios still get RECORDED via the
# baseline — the asserts skip LOUDLY rather than fail on physics.
cores="$(nproc 2>/dev/null || echo 1)"

# Client pipelining: a 16-frame window must beat lockstep on ≥2 cores.
# Single-core sanity floor either way: the windowed client must never
# fall more than 15% behind lockstep — that would mean the window is
# adding work, not hiding latency.
awk -v cores="$cores" '
$1 ~ /^BenchmarkBinaryClientLockstep(-[0-9]+)?$/ {
    for (i = 1; i < NF; i++) if ($(i+1) == "lines/s" && $i + 0 > lock) lock = $i + 0
}
$1 ~ /^BenchmarkBinaryClientPipelined(-[0-9]+)?$/ {
    for (i = 1; i < NF; i++) if ($(i+1) == "lines/s" && $i + 0 > pipe) pipe = $i + 0
}
END {
    if (lock <= 0 || pipe <= 0) { print "bench-gate: FAIL: lines/s series missing for the client benches"; exit 1 }
    printf "bench-gate: pipelined client %.0f lines/s vs lockstep %.0f lines/s (%.2fx, %d cores)\n", pipe, lock, pipe / lock, cores
    if (pipe < 0.85 * lock) { print "bench-gate: FAIL: pipelined client below 0.85x lockstep — the window is adding overhead"; exit 1 }
    if (cores < 2) { print "bench-gate: SKIPPED pipelined>lockstep assert: " cores " core(s), no overlap to exploit"; exit 0 }
    if (pipe <= lock) { print "bench-gate: FAIL: pipelined client not faster than lockstep on a multi-core host"; exit 1 }
}' "$tmp"

# Router scaling: 3 shards must serve ≥2.5x the line-ops/s of 1 shard —
# the tentpole claim — when the host has enough cores to run three
# shard servers, the router, and the client concurrently (≥6).
awk -v cores="$cores" '
$1 ~ /^BenchmarkRouterBatch1Shard(-[0-9]+)?$/ {
    for (i = 1; i < NF; i++) if ($(i+1) == "lines/s" && $i + 0 > one) one = $i + 0
}
$1 ~ /^BenchmarkRouterBatch3Shards(-[0-9]+)?$/ {
    for (i = 1; i < NF; i++) if ($(i+1) == "lines/s" && $i + 0 > three) three = $i + 0
}
END {
    if (one <= 0 || three <= 0) { print "bench-gate: FAIL: lines/s series missing for the router benches"; exit 1 }
    printf "bench-gate: router 3 shards %.0f lines/s vs 1 shard %.0f lines/s (%.2fx, %d cores)\n", three, one, three / one, cores
    if (cores < 6) { print "bench-gate: SKIPPED 3-shard>=2.5x assert: " cores " core(s), need >=6 to run the topology in parallel"; exit 0 }
    if (three < 2.5 * one) { print "bench-gate: FAIL: 3-shard router below 2.5x the 1-shard throughput"; exit 1 }
}' "$tmp"
