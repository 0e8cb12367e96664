#!/usr/bin/env bash
# Paired benchmark runner: compares one perfbench workload between a
# parent revision and the working tree.
#
#   scripts/pair.sh PARENT_REV WORKLOAD [PAIRS] [SEED] [SECONDS]
#
# PAIRS defaults to 10, SEED to 1 and SECONDS to 20 (BENCHMARK.json's
# run length). Both sides are built from source: the parent from
# `git archive PARENT_REV`, the change from the working tree, each with
# perfbench's own sources, under ${CARGO_TARGET_DIR:-.bench_build}/pair/.
# The runs alternate parent and change with equal settings, flipping
# which side goes first in every pair, so slow drift of a shared host
# falls on both sides alike.
#
# It prints every pair's end-to-end metrics, then for each metric both
# sides' median and quartiles, the change's win count over the pairs
# (ties count for neither) and whether the pairs support a gain: wins in
# at least nine tenths of the pairs and medians further apart than the
# parent's interquartile spread. The metric names and their better
# direction come from BENCHMARK.json's end_to_end list. The script
# measures; it gates nothing.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ]; then
    echo "usage: scripts/pair.sh PARENT_REV WORKLOAD [PAIRS] [SEED] [SECONDS]" >&2
    exit 2
fi
parent_rev="$1"
workload="$2"
pairs="${3:-10}"
seed="${4:-1}"
seconds="${5:-20}"

build="${CARGO_TARGET_DIR:-.bench_build}/pair"
mkdir -p "$build"
abs="$(cd "$build" && pwd)"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
export GOCACHE="$abs/gocache" GOPATH="$abs/gopath" XDG_CONFIG_HOME="$abs/config"

rm -rf "$abs/parent-src" "$abs/runs"
mkdir -p "$abs/parent-src" "$abs/runs"
git archive "$parent_rev" | tar -x -C "$abs/parent-src"
(cd "$abs/parent-src/perfbench" && go build -o "$abs/parent" .)
(cd perfbench && go build -o "$abs/change" .)

# run SIDE PAIR: one untraced run; its closing JSON line is kept.
run() {
    local side="$1" pair="$2" out
    out=$("$abs/$side" -workload "$workload" -seed "$seed" -seconds "$seconds" -trace 0)
    printf '%s\n' "$out" | tail -n 1 >"$abs/runs/$pair-$side.json"
}

# metrics FILE: "name value" per end-to-end metric of one run.
metrics() {
    grep -o '"[a-z0-9_]*":{"value":[^,]*,' "$1" |
        sed 's/^"\([a-z0-9_]*\)":{"value":\([^,]*\),$/\1 \2/'
}

echo "pair workload=$workload seed=$seed seconds=$seconds parent=$(git rev-parse --short "$parent_rev") pairs=$pairs"
for p in $(seq 1 "$pairs"); do
    if [ $((p % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
        run "$side" "$p"
    done
    echo "pair $p (${order%% *} first)"
    for side in parent change; do
        if ! grep -q '"correct":true' "$abs/runs/$p-$side.json"; then
            echo "  $side: run reported failed checks: $(cat "$abs/runs/$p-$side.json")" >&2
            exit 1
        fi
        printf '  %-6s' "$side"
        metrics "$abs/runs/$p-$side.json" | awk '{printf " %s=%.6g", $1, $2}'
        echo
    done
done

# Summary: one row per metric named in BENCHMARK.json's end_to_end list.
grep -o '{"name": *"[a-z0-9_]*", *"unit": *"[^"]*", *"better": *"[a-z]*"' BENCHMARK.json |
    sed 's/.*"name": *"\([a-z0-9_]*\)".*"better": *"\([a-z]*\)"/\1 \2/' >"$abs/runs/better.txt"
for p in $(seq 1 "$pairs"); do
    for side in parent change; do
        metrics "$abs/runs/$p-$side.json" | awk -v p="$p" -v s="$side" '{print p, s, $1, $2}'
    done
done | awk -v pairs="$pairs" '
    NR == FNR { better[$1] = $2; order[++n] = $1; next }
    { v[$3, $2, $1] = $4 }
    # q: the type-7 (linear) quantile of the sorted a[1..k].
    function q(a, k, f,   h, lo) {
        h = (k - 1) * f + 1; lo = int(h)
        return lo >= k ? a[k] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
    }
    function sortn(a, k,   i, j, t) {
        for (i = 2; i <= k; i++) {
            t = a[i]
            for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
            a[j + 1] = t
        }
    }
    END {
        printf "\n%-20s %-6s %32s %32s %6s %8s %s\n", "metric", "better", "parent median [q1, q3]", "change median [q1, q3]", "wins", "delta", "gain"
        for (m = 1; m <= n; m++) {
            name = order[m]
            if (!((name, "parent", 1) in v)) continue
            wins = 0
            for (p = 1; p <= pairs; p++) {
                a[p] = v[name, "parent", p]; b[p] = v[name, "change", p]
                if (better[name] == "higher" ? b[p] > a[p] : b[p] < a[p]) wins++
            }
            sortn(a, pairs); sortn(b, pairs)
            pm = q(a, pairs, 0.5); cm = q(b, pairs, 0.5)
            iqr = q(a, pairs, 0.75) - q(a, pairs, 0.25)
            delta = pm != 0 ? sprintf("%+.1f%%", 100 * (cm - pm) / pm) : "n/a"
            gain = (wins * 10 >= 9 * pairs && (better[name] == "higher" ? cm - pm : pm - cm) > iqr) ? "yes" : "no"
            printf "%-20s %-6s %32s %32s %3d/%-2d %8s %s\n", name, better[name],
                sprintf("%.6g [%.6g, %.6g]", pm, q(a, pairs, 0.25), q(a, pairs, 0.75)),
                sprintf("%.6g [%.6g, %.6g]", cm, q(b, pairs, 0.25), q(b, pairs, 0.75)),
                wins, pairs, delta, gain
        }
    }' "$abs/runs/better.txt" -
