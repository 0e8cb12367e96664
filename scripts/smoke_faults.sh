#!/usr/bin/env bash
# CI smoke test of the fault-injection + adaptive-routing subsystem:
#
#   1. a 3-point link fault-rate ladder (reliability mode) on the 4x4
#      mesh must emit valid JSON, byte-identical to its golden in
#      scripts/golden/, whose delivered fraction degrades as links fail,
#      in both routing modes;
#   2. the faulted adaptive sweep must be deterministic across -parallel
#      settings and byte-identical to its golden;
#   3. the invariant suite (kernel-state audit, conservation, escape-VC
#      acyclicity, mid-run purge) must pass under the race detector;
#   4. a per-package coverage summary over the fault/adaptive surface is
#      printed for the CI log.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/nocsim" ./cmd/nocsim

echo "== reliability ladder (fault rates 0, 0.1, 0.2) =="
for mode in oblivious adaptive; do
    "$tmp/nocsim" -mesh 4x4 -faultrates 0,0.1,0.2 -routing "$mode" \
        -rates 0.02,0.06,0.1 -warmup 300 -measure 1500 -seed 1 -faultseed 7 \
        -parallel 4 -out "$tmp/rel_$mode.json" 2>"$tmp/rel_$mode.log"
    grep -q '"faultRate": 0.2' "$tmp/rel_$mode.json"
    grep -q "\"routing\": \"$mode\"" "$tmp/rel_$mode.json"
    echo "--- $mode ---"
    cat "$tmp/rel_$mode.log"
done

# The reliability JSON is pinned against goldens captured before the
# sweep front ends were merged into one: the simulator may get faster,
# never different. Regenerate only for deliberate semantic changes.
for mode in oblivious adaptive; do
    golden="scripts/golden/reliability_mesh4x4_$mode.json"
    if ! cmp -s "$tmp/rel_$mode.json" "$golden"; then
        echo "smoke_faults: $mode reliability JSON drifted from $golden" >&2
        diff "$golden" "$tmp/rel_$mode.json" >&2 || true
        exit 1
    fi
done

# The pristine point must out-deliver the 20%-failed point in both modes.
for mode in oblivious adaptive; do
    python3 - "$tmp/rel_$mode.json" <<'EOF'
import json, sys
pts = json.load(open(sys.argv[1]))["points"]
frac = {p["faultRate"]: p["deliveredFraction"] for p in pts}
assert frac[0] > frac[0.2], f"delivery did not degrade with faults: {frac}"
EOF
done

echo "== faulted adaptive sweep determinism across -parallel =="
sweep() {
    "$tmp/nocsim" -mesh 4x4 -sweep -pattern uniform -seed 1 \
        -routing adaptive -faults 'link:1-2,link:9-13@400' \
        -rates 0.02,0.08,0.2 -warmup 300 -measure 1500 -parallel "$1" \
        -out "$2" 2>/dev/null
}
sweep 1 "$tmp/a.json"
sweep 4 "$tmp/b.json"
if ! cmp -s "$tmp/a.json" "$tmp/b.json"; then
    echo "smoke_faults: faulted sweep JSON differs across -parallel settings" >&2
    diff "$tmp/a.json" "$tmp/b.json" >&2 || true
    exit 1
fi
if ! cmp -s "$tmp/a.json" scripts/golden/sweep_mesh4x4_faults_adaptive.json; then
    echo "smoke_faults: faulted sweep JSON drifted from the pinned golden" >&2
    diff scripts/golden/sweep_mesh4x4_faults_adaptive.json "$tmp/a.json" >&2 || true
    exit 1
fi
grep -q '"routing": "adaptive"' "$tmp/a.json"
grep -q '"faults": "link:1-2,link:9-13@400"' "$tmp/a.json"

echo "== invariant suite under -race =="
go test -race -count=1 \
    -run 'TestInvariants|TestEscapeVCAcyclic|TestSweepDeterministicAcrossParallelism|TestReset|TestAdaptive|TestParseFaultMap|TestRandomLinkFaults|TestDisconnected' \
    ./internal/noc/ ./internal/routing/

echo "== coverage summary (fault/adaptive surface) =="
go test -count=1 -coverprofile="$tmp/coverage.out" \
    ./internal/noc/ ./internal/routing/ ./internal/topology/ >/dev/null
go tool cover -func="$tmp/coverage.out" | awk '
    { file = $1; sub(/:.*/, "", file); sub(/\/[^\/]*\.go$/, "", file)
      pct = $NF; sub(/%/, "", pct); sum[file] += pct; cnt[file]++ }
    END { for (f in sum) printf "%-30s %6.1f%% of functions covered (mean)\n", f, sum[f]/cnt[f] }' | sort
go tool cover -func="$tmp/coverage.out" | tail -1

echo "smoke_faults: OK (reliability ladder, determinism, goldens, invariants, coverage)"
