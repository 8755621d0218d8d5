#!/usr/bin/env bash
# Unlinked-code report: `make unlinked` and CI's lint job run this.
#
# Builds the 13 commands and bench/rbsgbench with inlining off, lists
# the securityrbsg/internal/... functions their symbol tables hold
# (go tool nm), and prints every function declared in internal/'s
# non-test files (testdata skipped) that no binary links, with the
# lines of its declaration, then the totals with and without the
# test-support packages analysistest and schemetest.
#
# Generic instantiations match their declaration once the [...] is
# stripped; a value-receiver method counts as linked when only its
# (*T).M wrapper appears. It is a report, not a gate: it exits
# non-zero only when a build fails.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

go build -gcflags=all=-l -o "$tmp/" ./cmd/...
(cd bench && go build -gcflags=all=-l -o "$tmp/rbsgbench" ./rbsgbench)

# Linked: pkg.F, pkg.T.M and pkg.(*T).M become pkg.F and pkg.T.M.
for bin in "$tmp"/*; do
    go tool nm "$bin"
done | awk '$2 == "T" || $2 == "t" { print $3 }' |
    grep '^securityrbsg/internal/' |
    sed -e 's/\[[^]]*\]//g' -e 's/(\*\([^)]*\))/\1/' |
    sort -u >"$tmp/linked"

# Declared: one "key lines file:line" row per top-level func.
find internal -path '*/testdata' -prune -o -name '*.go' ! -name '*_test.go' -print |
    sort | while read -r f; do
        awk -v pkg="securityrbsg/$(dirname "$f")" -v file="$f" '
            /^func / {
                start = FNR
                s = $0
                recv = ""
                if (s ~ /^func \(/) {
                    r = substr(s, 7)
                    r = substr(r, 1, index(r, ")") - 1)
                    n = split(r, w, " ")
                    recv = w[n]
                    gsub(/[*]/, "", recv)
                    sub(/\[.*/, "", recv)
                    s = substr(s, index(s, ")") + 2)
                } else {
                    s = substr(s, 6)
                }
                match(s, /^[A-Za-z_][A-Za-z0-9_]*/)
                name = substr(s, 1, RLENGTH)
                key = pkg "." (recv == "" ? "" : recv ".") name
                if ($0 ~ /}$/) { print key, 1, file ":" start; next }
                open = 1
                next
            }
            open && /^}/ { print key, FNR - start + 1, file ":" start; open = 0 }
        ' "$f"
    done >"$tmp/declared"

awk '
    NR == FNR { linked[$1] = 1; next }
    {
        key = $1
        # func init() links as pkg.init.0, pkg.init.1, ...
        if (key ~ /\.init$/) {
            for (k in linked) if (index(k, key ".") == 1) next
        }
        if (key in linked) next
        support = key ~ /\/(analysistest|schemetest)\./
        total += $2
        if (!support) outside += $2
        printf "%5d  %s  %s\n", $2, $3, key
    }
    END {
        printf "unlinked: %d lines, %d outside analysistest and schemetest\n", total, outside
    }
' "$tmp/linked" "$tmp/declared"
