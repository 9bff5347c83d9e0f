#!/bin/sh
# Alternating pairs of the repository benchmark, parent against change
# (the choosing-metrics method: pairs cancel the drift of the host).
#
#   scripts/pairs.sh <parent-dir> <change-dir> <workload> [pairs]
#
# Builds ./benchmark once in each checkout, runs `pairs` (default 10) pairs
# of `--seconds 15 --trace 0`, seed = pair number, the side that goes first
# alternating, and prints per end-to-end metric: each side's median
# [quartiles], the change's median against the parent's, and pairs won.
# Appends one row for this (change, workload) to BENCH_history.jsonl.
# A run with a failed op ends the script non-zero.
set -eu

if [ $# -lt 3 ]; then
    echo "usage: $0 <parent-dir> <change-dir> <workload> [pairs]" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=${4:-10}
repo=$(cd "$(dirname "$0")/.." && pwd)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
(cd "$parent" && go build -o "$tmp/parent" ./benchmark)
(cd "$change" && go build -o "$tmp/change" ./benchmark)

i=1
while [ "$i" -le "$pairs" ]; do
    order="parent change"
    [ $((i % 2)) -eq 0 ] && order="change parent"
    for side in $order; do
        dir=$parent
        [ "$side" = change ] && dir=$change
        line=$(cd "$dir" && "$tmp/$side" --workload "$workload" --seed "$i" --seconds 15 --trace 0 | tail -n 1)
        echo "$i $side $line" >>"$tmp/runs"
        echo "pair $i $side: $line" >&2
    done
    i=$((i + 1))
done

label() { git -C "$1" describe --always --dirty 2>/dev/null || echo unknown; }

# The metric names and which direction is better come from BENCHMARK.json's
# end_to_end list, so this script has no table of its own to keep in step.
awk -v workload="$workload" -v pairs="$pairs" \
    -v plabel="$(label "$parent")" -v clabel="$(label "$change")" \
    -v history="$repo/BENCH_history.jsonl" '
function quantile(a, n, q,    h, lo) {
    h = (n - 1) * q; lo = int(h)
    return lo + 1 >= n ? a[n] : a[lo + 1] + (h - lo) * (a[lo + 2] - a[lo + 1])
}
function summarise(side, m, out,    n, i, j, t, a) {
    n = 0
    for (i = 1; i <= pairs; i++) a[++n] = val[side, m, i]
    for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
    out["q1"] = quantile(a, n, 0.25); out["med"] = quantile(a, n, 0.5); out["q3"] = quantile(a, n, 0.75)
}
FNR == NR {
    if ($0 ~ /"end_to_end"/) inside = 1
    if ($0 ~ /"per_layer"/) inside = 0
    if (inside && match($0, /"name": *"[a-z0-9_]+"/)) { name = $0; sub(/.*"name": *"/, "", name); sub(/".*/, "", name); metrics[++nm] = name }
    if (inside && $0 ~ /"better": *"higher"/) higher[name] = 1
    next
}
{
    for (k = 1; k <= nm; k++) {
        m = metrics[k]
        if (!match($0, "\"" m "\":\\{\"value\":[-0-9.e+]+")) { print "no " m " in: " $0 > "/dev/stderr"; exit 1 }
        v = substr($0, RSTART, RLENGTH); sub(/.*:/, "", v)
        val[$2, m, $1] = v + 0
    }
}
END {
    printf "%s: %d pairs, parent %s, change %s\n", workload, pairs, plabel, clabel
    row = sprintf("{\"parent\":\"%s\",\"change\":\"%s\",\"workload\":\"%s\",\"pairs\":%d,\"seconds\":15,\"metrics\":{", plabel, clabel, workload, pairs)
    for (k = 1; k <= nm; k++) {
        m = metrics[k]
        summarise("parent", m, p); summarise("change", m, c)
        won = 0; lost = 0
        for (i = 1; i <= pairs; i++) {
            d = val["change", m, i] - val["parent", m, i]
            if (higher[m]) d = -d
            if (d < 0) won++; else if (d > 0) lost++
        }
        delta = p["med"] ? 100 * (c["med"] - p["med"]) / p["med"] : 0
        apart = (c["med"] - p["med"]) * (higher[m] ? 1 : -1) > p["q3"] - p["q1"] ? "yes" : "no"
        printf "  %-14s parent %.4g [%.4g-%.4g]  change %.4g [%.4g-%.4g]  %+.1f%%  won %d lost %d of %d  better by more than parent IQR: %s\n", \
            m, p["med"], p["q1"], p["q3"], c["med"], c["q1"], c["q3"], delta, won, lost, pairs, apart
        row = row sprintf("%s\"%s\":{\"parent\":[%.6g,%.6g,%.6g],\"change\":[%.6g,%.6g,%.6g],\"delta_pct\":%.2f,\"won\":%d,\"lost\":%d}", \
            k > 1 ? "," : "", m, p["q1"], p["med"], p["q3"], c["q1"], c["med"], c["q3"], delta, won, lost)
    }
    print row "}}" >> history
}' "$repo/BENCHMARK.json" "$tmp/runs"
