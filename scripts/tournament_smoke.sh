#!/usr/bin/env bash
# Tournament smoke test: the CI job and `make tournament-smoke` both run
# this.
#
# Plays the full registered scheme×attack matrix through cmd/tournament
# at 2^10 lines, asserts that every playable cell of the plugin registry
# completed, checks the CSV's SHA-256 against the reference for the
# default geometry, and proves the checkpoint/resume path by re-running
# the grid and requiring a byte-identical CSV. The output directory can
# be pinned with TOURNAMENT_OUT (CI does, to upload the CSV as an
# artifact); otherwise everything lands in a temp dir.
set -euo pipefail
cd "$(dirname "$0")/.."

LINES=${TOURNAMENT_LINES:-1024}
ENDURANCE=${TOURNAMENT_ENDURANCE:-3000}

# SHA-256 of the CSV at the default geometry (2^10 lines, endurance
# 3000); bench/rbsgbench pins the same value for its -smoke run.
# A change that moves it changes the tournament's output, not just its
# speed.
REFERENCE_SHA=00f87ef8b159bbd816ee8b9e96ffe6be8dd62bf781ae6a88bdf9b04548f9d7f0

tmp=$(mktemp -d)
out=${TOURNAMENT_OUT:-$tmp/out}
mkdir -p "$out"
cleanup() { rm -rf "$tmp"; }
trap cleanup EXIT

go build -o "$tmp/tournament" ./cmd/tournament

echo "== playable matrix"
"$tmp/tournament" -list | tee "$tmp/list.out"
expected=$(grep -c 'playable$' "$tmp/list.out")
[ "$expected" -gt 0 ] || { echo "FAIL: registry lists no playable cells"; exit 1; }

echo "== full matrix at $LINES lines (expecting $expected cells)"
"$tmp/tournament" -lines "$LINES" -endurance "$ENDURANCE" -quiet \
    -ckpt "$tmp/ckpt" -out "$out/tournament.csv" -meta "$out/runmeta.json"

# Every playable cell must appear in the CSV, and every one of them must
# have completed: the status column is looked up from the header so the
# check survives metric additions.
status_col=$(head -1 "$out/tournament.csv" | tr ',' '\n' | grep -n '^status$' | cut -d: -f1)
[ -n "$status_col" ] || { echo "FAIL: CSV has no status column"; exit 1; }
rows=$(tail -n +2 "$out/tournament.csv" | wc -l)
done_rows=$(tail -n +2 "$out/tournament.csv" | awk -F, -v c="$status_col" '$c == "done"' | wc -l)
echo "== $done_rows/$rows cells done ($expected registered)"
[ "$rows" -eq "$expected" ] || { echo "FAIL: CSV has $rows cells, registry plays $expected"; exit 1; }
[ "$done_rows" -eq "$expected" ] || { echo "FAIL: only $done_rows/$expected cells completed"; exit 1; }

if [ "$LINES" = 1024 ] && [ "$ENDURANCE" = 3000 ]; then
    sha=$(sha256sum "$out/tournament.csv" | cut -d' ' -f1)
    echo "== CSV SHA-256 $sha"
    [ "$sha" = "$REFERENCE_SHA" ] \
        || { echo "FAIL: CSV SHA-256 $sha, reference $REFERENCE_SHA"; exit 1; }
else
    echo "== SHA check SKIPPED: the reference is for 1024 lines at endurance 3000, this run is $LINES lines at endurance $ENDURANCE"
fi

echo "== resume must be byte-identical"
"$tmp/tournament" -lines "$LINES" -endurance "$ENDURANCE" -quiet \
    -ckpt "$tmp/ckpt" -resume -out "$tmp/resumed.csv"
cmp "$out/tournament.csv" "$tmp/resumed.csv" \
    || { echo "FAIL: resumed CSV differs from the fresh run"; exit 1; }

echo "== tournament smoke OK"
