#!/usr/bin/env bash
# Record the repo's benchmark baseline (BENCH_16.json): run every
# benchmark with -benchmem and fold the output — ns/op, B/op,
# allocs/op and each ReportMetric figure series — into a committed
# JSON baseline via cmd/benchdiff.
#
# Usage: scripts/bench_record.sh [out.json]
#   BENCH_TIME=2s   per-benchmark time budget (default 1s)
#   BENCH_COUNT=3   repetitions; the baseline keeps the fastest
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_16.json}"
benchtime="${BENCH_TIME:-1s}"
count="${BENCH_COUNT:-3}"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

go test -run '^$' -bench . -benchmem -benchtime "$benchtime" -count "$count" \
    . ./internal/memserver/ ./internal/memrouter/ | tee "$tmp"
# The core count is provenance that matters: the router scaling and
# client pipelining series are parallelism measurements, and a baseline
# recorded on a starved box (cores=1: no overlap, 3 shards slower than
# 1) must say so before anyone reads its ratios as the hardware truth.
go run ./cmd/benchdiff -record -out "$out" \
    -note "benchtime=$benchtime count=$count cores=$(nproc 2>/dev/null || echo 1) $(go version | awk '{print $3"/"$4}')" "$tmp"
