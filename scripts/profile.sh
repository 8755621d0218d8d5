#!/usr/bin/env bash
# Capture a CPU profile of memctld under load (`make profile`).
#
# Boots memctld with its binary listener and its -pprof listener on
# random loopback ports, drives the binary listener with loadgen, and
# fetches /debug/pprof/profile for the duration of the stream. Inspect the result with:
#
#	go tool pprof -top cpu.pprof
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
    -pprof 127.0.0.1:0 -banks 8 -lines $((1 << 20)) 2>"$tmp/server.log" &
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

"$tmp/loadgen" -addr "$addr" -binary-addr "$binaddr" -workers 8 -duration "${seconds}s" -pattern "$pattern" \
    | tee "$tmp/loadgen.out"

wait "$profpid" || { echo "FAIL: profile fetch failed"; exit 1; }
kill -TERM "$pid"; wait "$pid" || true; pid=""

echo "== wrote $out — inspect with: go tool pprof -top $out"
