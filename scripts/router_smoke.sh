#!/usr/bin/env bash
# Router smoke test: the CI job and `make router-smoke` both run this.
#
# Boots a real distributed deployment — three memctld shard PROCESSES
# plus a memrouterd in front — using waitready on the daemons' address
# files instead of sleep loops. Then, entirely through the router:
# probes the wire protocol (round trip + version skew), drives a benign
# uniform stream (no detector alarms, frames split across shards) and
# an attack-shaped stream (the shard 0 detector must alarm, and ONLY
# shard 0's — the router's shard-labeled metric passthrough proves
# where the traffic landed). Finally drains the topology in the only
# correct order: router first (its in-flight frames need live shards),
# shards after.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
pids=()
cleanup() {
    for p in "${pids[@]:-}"; do [ -n "$p" ] && kill "$p" 2>/dev/null || true
    done
    rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/memctld" ./cmd/memctld
go build -o "$tmp/memrouterd" ./cmd/memrouterd
go build -o "$tmp/waitready" ./cmd/waitready
go build -o "$tmp/loadgen" ./cmd/loadgen
go build -o "$tmp/binprobe" ./cmd/binprobe

fetch() { # fetch URL OUTFILE
    if command -v curl >/dev/null 2>&1; then curl -fsS "$1" > "$2"
    else wget -qO- "$1" > "$2"; fi
}

echo "== booting 3 shards"
shard_lines=$((1 << 18))
for i in 0 1 2; do
    "$tmp/memctld" -addr 127.0.0.1:0 -addr-file "$tmp/s$i.ctl" \
        -binary-addr 127.0.0.1:0 -binary-addr-file "$tmp/s$i.bin" \
        -banks 4 -lines "$shard_lines" -seed $((5 + i)) \
        2>"$tmp/s$i.log" &
    pids+=($!)
done
"$tmp/waitready" -timeout 30s "$tmp/s0.bin" "$tmp/s1.bin" "$tmp/s2.bin" \
    "$tmp/s0.ctl" "$tmp/s1.ctl" "$tmp/s2.ctl" >/dev/null

echo "== booting the router"
"$tmp/memrouterd" -addr 127.0.0.1:0 -addr-file "$tmp/r.ctl" \
    -binary-addr 127.0.0.1:0 -binary-addr-file "$tmp/r.bin" \
    -shards "$(cat "$tmp/s0.bin"),$(cat "$tmp/s1.bin"),$(cat "$tmp/s2.bin")" \
    -shard-control "$(cat "$tmp/s0.ctl"),$(cat "$tmp/s1.ctl"),$(cat "$tmp/s2.ctl")" \
    -lines $((3 * shard_lines)) -group-map 0,1,2 \
    -health-every 250ms 2>"$tmp/r.log" &
rpid=$!
pids+=("$rpid")
# -healthz makes readiness mean "every shard passed its probe", not
# merely "the router's port is bound".
"$tmp/waitready" -timeout 30s -healthz "$tmp/r.ctl" >/dev/null
addr="http://$(cat "$tmp/r.ctl")"
binaddr="$(cat "$tmp/r.bin")"
echo "== router up at $addr (binary $binaddr)"

echo "== binary probe through the router: round trip and version skew"
"$tmp/binprobe" -addr "$binaddr"
"$tmp/binprobe" -addr "$binaddr" -skew

echo "== uniform stream through the router (detector must stay quiet)"
"$tmp/loadgen" -addr "$addr" -binary-addr "$binaddr" \
    -workers 4 -window 4 -duration 2s -pattern uniform | tee "$tmp/uniform.out"
grep -q "detector alarms: 0 (run)" "$tmp/uniform.out" \
    || { echo "FAIL: uniform traffic through the router raised alarms"; exit 1; }
ops=$(sed -n 's/^sustained: \([0-9]*\) line-ops.*/\1/p' "$tmp/uniform.out")
[ -n "$ops" ] && [ "$ops" -gt 0 ] \
    || { echo "FAIL: no sustained throughput through the router"; exit 1; }

echo "== router /metrics after the benign leg: every shard served, frames split"
fetch "$addr/metrics" "$tmp/benign.metrics"
for i in 0 1 2; do
    awk -v s="$i" '$0 ~ "^router_shard_line_ops_total{shard=\"" s "\"}" { n = $2 } END { exit !(n > 0) }' \
        "$tmp/benign.metrics" \
        || { echo "FAIL: shard $i served no ops under the uniform stream"; exit 1; }
done
awk '/^router_split_frames_total / { n = $2 } END { exit !(n > 0) }' "$tmp/benign.metrics" \
    || { echo "FAIL: uniform batches never split across shards"; exit 1; }
awk -v want=$((3 * shard_lines)) \
    '/^memctld_lines{/ { sum += $2 } END { exit !(sum == want) }' "$tmp/benign.metrics" \
    || { echo "FAIL: aggregated memctld_lines != 3 shards' worth"; exit 1; }

echo "== attack-shaped stream through the router (shard 0 must alarm)"
"$tmp/loadgen" -addr "$addr" -binary-addr "$binaddr" \
    -workers 4 -window 4 -duration 2s -pattern attack | tee "$tmp/attack.out"
grep -q "detector alarms: 0 (run)" "$tmp/attack.out" \
    && { echo "FAIL: attack stream through the router raised no alarm"; exit 1; }

echo "== router /metrics after the attack: alarms localized to shard 0"
fetch "$addr/metrics" "$tmp/attack.metrics"
awk '/^memctld_detector_alarms_total{shard="0"/ { sum += $2 } END { exit !(sum > 0) }' \
    "$tmp/attack.metrics" \
    || { echo "FAIL: shard 0 detector never alarmed"; exit 1; }
for i in 1 2; do
    awk -v s="$i" '$0 ~ "^memctld_detector_alarms_total{shard=\"" s "\"" { sum += $2 } END { exit !(sum == 0) }' \
        "$tmp/attack.metrics" \
        || { echo "FAIL: attack traffic leaked an alarm onto shard $i"; exit 1; }
done

echo "== SIGTERM → graceful drain, router FIRST, shards after"
kill -TERM "$rpid"
wait "$rpid" || { echo "FAIL: memrouterd exited non-zero"; cat "$tmp/r.log"; exit 1; }
grep -q "drained cleanly" "$tmp/r.log" \
    || { echo "FAIL: no clean-drain marker from the router"; cat "$tmp/r.log"; exit 1; }
for i in 0 1 2; do
    kill -TERM "${pids[$i]}"
    wait "${pids[$i]}" || { echo "FAIL: shard $i exited non-zero"; cat "$tmp/s$i.log"; exit 1; }
    grep -q "drained cleanly" "$tmp/s$i.log" \
        || { echo "FAIL: no clean-drain marker from shard $i"; cat "$tmp/s$i.log"; exit 1; }
done
pids=()

echo "== router smoke OK"
