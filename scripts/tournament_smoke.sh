#!/usr/bin/env bash
# Tournament smoke test: the CI job and `make tournament-smoke` both run
# this.
#
# Plays the full registered scheme×attack matrix through cmd/tournament
# at 2^10 lines, asserts that every playable cell of the plugin registry
# completed, checks the CSV's SHA-256 against the reference for the
# default geometry, and replays the grid on one worker, requiring a
# byte-identical CSV: the worker count never changes a byte. It then
# plays the matrix once more at the sim_tournament benchmark's geometry
# (2^14 lines, endurance 10^5), where the hardened RTA cells run their
# full write budget through the batched attack path instead of aborting
# early, and checks that CSV's SHA-256 too. The output directory can be
# pinned with TOURNAMENT_OUT (CI does, to upload the CSVs as an
# artifact); otherwise everything lands in a temp dir.
set -euo pipefail
cd "$(dirname "$0")/.."

LINES=${TOURNAMENT_LINES:-1024}
ENDURANCE=${TOURNAMENT_ENDURANCE:-3000}

# SHA-256 of the CSV at each pinned geometry, lines/endurance: the
# default (bench/rbsgbench pins the same value for its -smoke run) and
# the sim_tournament benchmark's (bench/rbsgbench pins it for its full
# run). A change that moves one changes the tournament's output, not
# just its speed.
reference_sha() {
    case "$1/$2" in
    1024/3000) echo 00f87ef8b159bbd816ee8b9e96ffe6be8dd62bf781ae6a88bdf9b04548f9d7f0 ;;
    16384/100000) echo ca8cc11069152f64020fe5fd08f38d6a44054689948bd6d9cd42bd89d41a9ffa ;;
    esac
}

# check_sha CSV LINES ENDURANCE fails unless CSV matches the reference
# for its geometry; a geometry without one is reported and skipped.
check_sha() {
    local want sha
    want=$(reference_sha "$2" "$3")
    if [ -z "$want" ]; then
        echo "== SHA check SKIPPED: no reference for $2 lines at endurance $3"
        return
    fi
    sha=$(sha256sum "$1" | cut -d' ' -f1)
    echo "== CSV SHA-256 $sha"
    [ "$sha" = "$want" ] || { echo "FAIL: CSV SHA-256 $sha, reference $want"; exit 1; }
}

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
    -out "$out/tournament.csv" -meta "$out/runmeta.json"

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

check_sha "$out/tournament.csv" "$LINES" "$ENDURANCE"

echo "== one worker must be byte-identical"
"$tmp/tournament" -lines "$LINES" -endurance "$ENDURANCE" -quiet \
    -workers 1 -out "$tmp/workers1.csv"
cmp "$out/tournament.csv" "$tmp/workers1.csv" \
    || { echo "FAIL: the -workers 1 CSV differs from the first run's"; exit 1; }

echo "== benchmark geometry: 16384 lines at endurance 100000"
"$tmp/tournament" -lines 16384 -endurance 100000 -quiet \
    -out "$out/tournament-16384.csv"
check_sha "$out/tournament-16384.csv" 16384 100000

echo "== tournament smoke OK"
