#!/usr/bin/env bash
# Builds the benchmark driver and runs it from the repository root:
#
#   bash bench/run.sh -workload serve_uniform -seed 1 -seconds 20 -trace 0
#
# Everything the build and the runs write stays under .bench_build/ at
# the root: the Go build cache, temporary files, binaries, run files
# and span files. The driver builds the daemons from the checked-out
# tree itself, so a checkout without the repository's sources fails
# here, before any result is printed.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
    XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
cd "$root"
go -C bench build -o "$out/bin/rbsgbench" ./rbsgbench
exec "$out/bin/rbsgbench" -repo "$root" "$@"
