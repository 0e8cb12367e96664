#!/usr/bin/env bash
# Perf-regression gate: compares the newest BENCH_trajectory.json entry
# against the earlier entries recorded on the same host (equal `host`
# blocks: CPU model, nproc, GOMAXPROCS, Go release). It fails on a >25%
# ns/op regression in any benchmark against either reference: the most
# recent such entry, and the best (lowest) value on record for that
# benchmark. The second check keeps slow drift from compounding across
# entries, each within the tolerance of its predecessor. Figures from
# different hosts are not comparable, so when no earlier entry shares the
# newest one's host the gate reports "no comparable entry" and passes.
# Benchmark names are compared with the "-N" suffix `go test` appends at
# GOMAXPROCS N > 1 stripped. Benchmarks faster than 1µs/op are skipped —
# at that scale run-to-run timer noise exceeds any real signal the gate
# could act on (the trajectory still records them for eyeballing).
#
# Usage: scripts/bench_check.sh [TRAJECTORY]
#   BENCH_TOLERANCE_PCT  regression threshold (default 25)
#   BENCH_MIN_NS         per-op floor below which entries are skipped
#                        (default 1000)
set -euo pipefail
cd "$(dirname "$0")/.."

trajectory="${1:-BENCH_trajectory.json}"

python3 - "$trajectory" <<'EOF'
import json, os, sys

tolerance = float(os.environ.get("BENCH_TOLERANCE_PCT", "25"))
min_ns = float(os.environ.get("BENCH_MIN_NS", "1000"))

with open(sys.argv[1]) as f:
    entries = json.load(f)["entries"]
if len(entries) < 2:
    print(f"bench_check: {len(entries)} entries, nothing to compare")
    sys.exit(0)

cur = entries[-1]
host = cur.get("host")
same_host = [e for e in entries[:-1] if host is not None and e.get("host") == host]
if not same_host:
    print(f"bench_check: no comparable entry for {cur.get('label')!r} "
          f"(no earlier entry recorded on host {host})")
    sys.exit(0)
prev = same_host[-1]

def base_name(name, gomaxprocs):
    # go test appends "-N" to every benchmark name when GOMAXPROCS is
    # N > 1; at 1 it appends nothing, and a trailing "-N" is part of the
    # name itself (e.g. a "workers-2" sub-benchmark).
    suffix = f"-{gomaxprocs}"
    if gomaxprocs > 1 and name.endswith(suffix):
        return name[: -len(suffix)]
    return name

def flatten(entry):
    procs = int(entry["host"].get("gomaxprocs", 1))
    out = {}
    for section in ("results", "kernel_results", "service_results"):
        for r in entry.get(section, []):
            out[base_name(r["name"], procs)] = float(r["ns_per_op"])
    return out

now = flatten(cur)
last = {name: (ns, prev.get("label")) for name, ns in flatten(prev).items()}
best = {}
for e in same_host:
    for name, ns in flatten(e).items():
        if name not in best or ns < best[name][0]:
            best[name] = (ns, e.get("label"))

def check(refs, what):
    failures, checked = [], 0
    for name, ns in sorted(now.items()):
        if name not in refs:
            print(f"bench_check: NEW   {name}: {ns:.0f} ns/op (no {what} entry)")
            continue
        ref, label = refs[name]
        if ref < min_ns and ns < min_ns:
            print(f"bench_check: SKIP  {name}: {ref:.1f} -> {ns:.1f} ns/op (below {min_ns:.0f} ns noise floor)")
            continue
        checked += 1
        delta = (ns - ref) / ref * 100
        status = "OK   "
        if delta > tolerance:
            status = "FAIL "
            failures.append(f"{name} {ref:.0f} ({what} {label!r}) -> {ns:.0f} ns/op ({delta:+.1f}% > {tolerance:.0f}%)")
        print(f"bench_check: {status}{name}: {ref:.0f} ({label}) -> {ns:.0f} ns/op ({delta:+.1f}%)")
    print(f"bench_check: compared {checked} benchmarks, entry {cur.get('label')!r} "
          f"vs {what} on record, tolerance {tolerance:.0f}%")
    return failures

failures = check(last, "previous") + check(best, "best")
if failures:
    for f in failures:
        print(f"bench_check: regression: {f}", file=sys.stderr)
    sys.exit(1)
EOF
