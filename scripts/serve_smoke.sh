#!/usr/bin/env bash
# Server smoke test: the CI job and `make serve-smoke` both run this.
#
# Boots memctld on random ports (the binary data plane and the HTTP
# control plane), probes the binary listener with binprobe (round
# trip + version skew), drives it with loadgen for ~2s under the benign
# and the attack-shaped stream, asserts the detector told them apart,
# and checks the daemon drains cleanly on SIGTERM with both listeners
# up.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
pid=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/memctld" ./cmd/memctld
go build -o "$tmp/loadgen" ./cmd/loadgen
go build -o "$tmp/binprobe" ./cmd/binprobe

"$tmp/memctld" -addr 127.0.0.1:0 -addr-file "$tmp/addr" \
    -binary-addr 127.0.0.1:0 -binary-addr-file "$tmp/binaddr" \
    -banks 8 -lines $((1 << 20)) 2>"$tmp/server.log" &
pid=$!

for _ in $(seq 100); do
    [ -s "$tmp/addr" ] && [ -s "$tmp/binaddr" ] && break
    sleep 0.1
done
[ -s "$tmp/addr" ] && [ -s "$tmp/binaddr" ] \
    || { echo "FAIL: server never bound"; cat "$tmp/server.log"; exit 1; }
addr="http://$(cat "$tmp/addr")"
binaddr="$(cat "$tmp/binaddr")"
echo "== memctld up at $addr (binary $binaddr)"

echo "== binary probe: round trip and version skew"
"$tmp/binprobe" -addr "$binaddr"
"$tmp/binprobe" -addr "$binaddr" -skew

echo "== uniform stream (detector must stay quiet)"
"$tmp/loadgen" -addr "$addr" -binary-addr "$binaddr" \
    -workers 8 -duration 2s -pattern uniform | tee "$tmp/uniform.out"
grep -q "detector alarms: 0 (run)" "$tmp/uniform.out" \
    || { echo "FAIL: uniform traffic raised alarms"; exit 1; }
ops=$(sed -n 's/^sustained: \([0-9]*\) line-ops.*/\1/p' "$tmp/uniform.out")
[ -n "$ops" ] && [ "$ops" -gt 0 ] \
    || { echo "FAIL: no sustained throughput reported"; exit 1; }

echo "== attack-shaped stream (detector must alarm)"
"$tmp/loadgen" -addr "$addr" -binary-addr "$binaddr" \
    -workers 8 -duration 2s -pattern attack | tee "$tmp/attack.out"
grep -q "detector alarms: 0 (run)" "$tmp/attack.out" \
    && { echo "FAIL: attack stream raised no alarm"; exit 1; }

echo "== scraping /metrics"
if command -v curl >/dev/null 2>&1; then
    curl -fsS "$addr/metrics" > "$tmp/metrics.out"
else
    wget -qO- "$addr/metrics" > "$tmp/metrics.out"
fi
grep -q '^memctld_demand_writes_total' "$tmp/metrics.out" \
    || { echo "FAIL: /metrics missing counters"; exit 1; }
awk '/^memctld_detector_alarms_total{/ { sum += $2 } END { exit !(sum > 0) }' "$tmp/metrics.out" \
    || { echo "FAIL: /metrics detector-alarm counter still zero"; exit 1; }
awk '/^memctld_binary_line_ops_total / { sum += $2 } END { exit !(sum > 0) }' "$tmp/metrics.out" \
    || { echo "FAIL: /metrics binary line-op counter still zero"; exit 1; }

echo "== SIGTERM → graceful drain (both listeners live)"
kill -TERM "$pid"
wait "$pid" || { echo "FAIL: memctld exited non-zero"; cat "$tmp/server.log"; exit 1; }
pid=""
grep -q "drained cleanly" "$tmp/server.log" \
    || { echo "FAIL: no clean-drain marker"; cat "$tmp/server.log"; exit 1; }

echo "== server smoke OK"
