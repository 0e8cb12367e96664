#!/usr/bin/env bash
# Benchmark recorder: runs the perf-trajectory benchmark set (solver,
# VF2, NoC simulator + batch engine, synthesis-service path, traffic
# sweep) and appends one labeled entry to BENCH_trajectory.json — the
# single cross-PR perf record (entries pr2..pr5 were merged from the
# former per-PR BENCH_pr*.json files; git history has the originals).
# EXPERIMENTS.md documents the before/after numbers of each PR; CI
# appends a run per build, checks it with scripts/bench_check.sh, and
# uploads the trajectory as an artifact.
#
# Usage: scripts/bench.sh [LABEL] [BENCHTIME]
set -euo pipefail
cd "$(dirname "$0")/.."

label="${1:-dev}"
benchtime="${2:-5x}"
trajectory="BENCH_trajectory.json"
# Each benchmark runs BENCH_COUNT times and the recorded ns/op is the
# per-benchmark minimum: timing noise is one-sided (preemption and
# cache pollution only ever slow a run down), so min-of-N is the
# stable estimator and keeps the bench_check regression gate from
# flapping on a single slow run.
count="${BENCH_COUNT:-3}"

raw=$(go test -run '^$' \
    -bench 'BenchmarkSolverParallelism|BenchmarkVF2GossipInAES|BenchmarkFig6_AESDecomposition|BenchmarkTableAES_Mesh|BenchmarkSweepUniformMesh|BenchmarkFrontierAES' \
    -benchmem -benchtime "$benchtime" -count "$count" .)

# Simulator-kernel and routing-pipeline trajectory: idle-cycle cost at
# 16 and 1000 routers, the allocation-free compiled-route injection
# path, a warm Reset rate point, a pooled 1k-router batch sweep point,
# the 10k-router demand-driven routing compile, the dense Build -> VC
# assignment -> compile pipeline at 256 and 1000 routers, and busy
# 1k/10k-router uniform windows (landmark routes at 10k) at kernel
# partition counts 1/2/4/8.
# These run at a fixed longer benchtime — the per-op cost of the short
# ones is nanoseconds, so 5 iterations would measure noise.
raw_kernel=$(go test -run '^$' \
    -bench 'BenchmarkStepIdle|BenchmarkInjectRouted|BenchmarkSweepReset|BenchmarkSweepBA1k|BenchmarkCompileSparseBA10k|BenchmarkCompileDense|BenchmarkStepBusy' \
    -benchmem -benchtime 1s -count "$count" .)

# Service-path trajectory: the cold (cache-miss, real solve) and hot
# (content-addressed cache hit) sides of the PR 3 synthesis daemon. The
# ratio between the two is the amortization the service layer buys.
raw_service=$(go test -run '^$' \
    -bench 'BenchmarkServiceColdSolve|BenchmarkServiceCacheHit' \
    -benchmem -benchtime "$benchtime" -count "$count" ./internal/service)

echo "$raw" >&2
echo "$raw_kernel" >&2
echo "$raw_service" >&2

# Workload trajectory (PR 4): the measured saturation point of the AES
# evaluation mesh under uniform traffic — the repo's first closed
# synthesize -> simulate -> saturation-curve loop. Deterministic for the
# fixed seed, so drift in this number means the simulator changed.
sweep_json=$(mktemp)
go run ./cmd/nocsim -mesh 4x4 -sweep -pattern uniform -seed 1 \
    -warmup 1000 -measure 5000 -parallel 0 -out "$sweep_json" 2>&1 | tail -1 >&2

# Collapses go-test bench output to JSON, keeping the fastest (min
# ns/op) of the -count repeats per benchmark name, with the B/op and
# allocs/op columns from that same fastest run.
tojson() {
    awk '
        /^Benchmark/ {
            name = $1
            ns = ""; bytes = ""; allocs = ""
            for (i = 2; i <= NF; i++) {
                if ($(i) == "ns/op")     ns = $(i-1)
                if ($(i) == "B/op")      bytes = $(i-1)
                if ($(i) == "allocs/op") allocs = $(i-1)
            }
            if (ns == "") next
            if (!(name in best)) { order[n++] = name; best[name] = ns + 0 }
            if (ns + 0 <= best[name]) {
                best[name] = ns + 0
                bestNs[name] = ns; bestBytes[name] = bytes; bestAllocs[name] = allocs
            }
        }
        END {
            for (i = 0; i < n; i++) {
                name = order[i]
                if (i) printf ",\n"
                printf "    {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
                    name, bestNs[name], \
                    (bestBytes[name] == "" ? "null" : bestBytes[name]), \
                    (bestAllocs[name] == "" ? "null" : bestAllocs[name])
            }
            printf "\n"
        }'
}

# The host the numbers were taken on: a figure is comparable only with
# figures from the same CPU, core count, GOMAXPROCS and Go release.
jsonstr() { printf '%s' "$1" | tr -d '"\\' ; }
cpu_model=$(awk -F': *' '/^model name/ { print $2; exit }' /proc/cpuinfo 2>/dev/null || true)
cpu_model=$(jsonstr "${cpu_model:-$(uname -m)}")
host_nproc=$(nproc)
host_gomaxprocs="${GOMAXPROCS:-$host_nproc}"
host_go=$(jsonstr "$(go version)")

entry_json=$(mktemp)
{
    echo '{'
    echo "  \"label\": \"$label\","
    echo "  \"recorded\": \"$(date -u +%Y-%m-%dT%H:%M:%SZ)\","
    echo '  "suite": "solver+vf2+nocsim hot paths + batch engine + service path + saturation sweep",'
    echo "  \"benchtime\": \"$benchtime\","
    echo "  \"count\": $count,"
    echo "  \"host\": {\"cpu\": \"$cpu_model\", \"nproc\": $host_nproc, \"gomaxprocs\": $host_gomaxprocs, \"go\": \"$host_go\"},"
    echo '  "results": ['
    echo "$raw" | tojson
    echo '  ],'
    echo '  "kernel_results": ['
    echo "$raw_kernel" | tojson
    echo '  ],'
    echo '  "service_results": ['
    echo "$raw_service" | tojson
    echo '  ],'
    echo '  "saturation_sweep_mesh4x4_uniform":'
    sed 's/^/  /' "$sweep_json"
    echo '}'
} > "$entry_json"
rm -f "$sweep_json"

python3 - "$trajectory" "$entry_json" <<'EOF'
import json, sys

trajectory, entry_path = sys.argv[1], sys.argv[2]
try:
    with open(trajectory) as f:
        doc = json.load(f)
except FileNotFoundError:
    doc = {"entries": []}
with open(entry_path) as f:
    doc["entries"].append(json.load(f))
with open(trajectory, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
EOF
rm -f "$entry_json"

echo "bench: appended entry \"$label\" to $trajectory" >&2
