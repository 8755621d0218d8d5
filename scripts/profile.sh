#!/usr/bin/env bash
# Capture a CPU profile of memctld under load (`make profile`).
#
# Boots memctld with its binary listener and its -pprof listener on
# random loopback ports, drives the binary listener with loadgen, and
# fetches /debug/pprof/profile for the duration of the stream. Inspect the result with:
#
#	go tool pprof -top cpu.pprof
#
# The shape mirrors the benchmark's serve_uniform workload
# (bench/README.md): memctld at 64 banks x 2^12 lines under
# srbsg+adaptive, driven by two pipelined connections that keep 8
# frames of 256 ops in flight each, a quarter of them reads. Each write
# carries ALL-0, ALL-1 or MIXED data with equal odds, so a third of the
# writes take the RESET path, as in serve_uniform (the drain summary's
# SET/RESET split shows it); unlike serve_uniform, the two connections
# do not split the lines between them. A frame then makes ~63 bank runs
# of ~4 ops and hands them to its executors (one message to each, at
# most GOMAXPROCS of them), so the handoff shows in the profile at the
# weight it has in that workload.
#
# Knobs: PROFILE_SECONDS (default 10), PROFILE_PATTERN (uniform|attack),
# PROFILE_OUT (default cpu.pprof).
set -euo pipefail
cd "$(dirname "$0")/.."

seconds="${PROFILE_SECONDS:-10}"
pattern="${PROFILE_PATTERN:-uniform}"
out="${PROFILE_OUT:-cpu.pprof}"

tmp=$(mktemp -d)
pid=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/memctld" ./cmd/memctld
go build -o "$tmp/loadgen" ./cmd/loadgen

"$tmp/memctld" -addr 127.0.0.1:0 -addr-file "$tmp/addr" \
    -binary-addr 127.0.0.1:0 -binary-addr-file "$tmp/binaddr" \
    -pprof 127.0.0.1:0 -banks 64 -lines $((1 << 18)) -scheme srbsg+adaptive 2>"$tmp/server.log" &
pid=$!

for _ in $(seq 100); do
    [ -s "$tmp/addr" ] && [ -s "$tmp/binaddr" ] && grep -q "pprof on" "$tmp/server.log" && break
    sleep 0.1
done
[ -s "$tmp/addr" ] && [ -s "$tmp/binaddr" ] \
    || { echo "FAIL: server never bound"; cat "$tmp/server.log"; exit 1; }
addr="http://$(cat "$tmp/addr")"
binaddr="$(cat "$tmp/binaddr")"
ppurl=$(sed -n 's#.*pprof on \(http://[^/]*\)/.*#\1#p' "$tmp/server.log")
[ -n "$ppurl" ] || { echo "FAIL: pprof listener not announced"; cat "$tmp/server.log"; exit 1; }
echo "== memctld at $addr, pprof at $ppurl, profiling ${seconds}s of '$pattern' load"

# Start the profile first so it brackets the whole load window.
fetch() {
    if command -v curl >/dev/null 2>&1; then curl -fsS "$1" -o "$2"; else wget -qO "$2" "$1"; fi
}
fetch "$ppurl/debug/pprof/profile?seconds=$seconds" "$out" &
profpid=$!

"$tmp/loadgen" -addr "$addr" -binary-addr "$binaddr" -workers 2 -window 8 -batch 256 -reads 0.25 \
    -duration "${seconds}s" -pattern "$pattern" \
    | tee "$tmp/loadgen.out"

wait "$profpid" || { echo "FAIL: profile fetch failed"; exit 1; }
kill -TERM "$pid"; wait "$pid" || true; pid=""

echo "== wrote $out — inspect with: go tool pprof -top $out"
