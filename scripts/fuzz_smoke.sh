#!/usr/bin/env bash
# Fuzz smoke test: the CI job and `make fuzz-smoke` both run this.
#
# Plain `go test` only replays each Fuzz* target's seed corpus. This
# script fuzzes every Fuzz* target in the module for FUZZTIME (default
# 10s) each, one target at a time (go test -fuzz takes one target per
# package run). A failure leaves the crashing input under the package's
# testdata/fuzz/ directory, ready to commit as a regression seed.
set -euo pipefail
cd "$(dirname "$0")/.."

fuzztime="${FUZZTIME:-10s}"
targets=0
while read -r pkg dir; do
    for f in $(grep -ho '^func Fuzz[A-Za-z0-9_]*' "$dir"/*_test.go 2>/dev/null | sed 's/^func //'); do
        echo "fuzz-smoke: $pkg $f ($fuzztime)"
        go test -run '^$' -fuzz "^$f\$" -fuzztime "$fuzztime" "$pkg"
        targets=$((targets + 1))
    done
done < <(go list -f '{{.ImportPath}} {{.Dir}}' ./...)

if [ "$targets" -eq 0 ]; then
    echo "fuzz-smoke: FAIL: no Fuzz targets found" >&2
    exit 1
fi
echo "fuzz-smoke: $targets targets fuzzed for $fuzztime each"
