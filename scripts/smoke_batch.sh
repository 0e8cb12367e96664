#!/usr/bin/env bash
# Bulk-simulate smoke test: drive POST /v1/simulate end-to-end against a
# live nocserve and cmp the response against a -parallel 1 local batch
# run of the same request — the byte-identity contract of the batch
# engine across the local and service paths. Also checks local
# determinism across -parallel settings, the repeat-submission cache
# hit, and result addressability by content key. Needs only bash, curl
# and the go toolchain.
#
# Usage: scripts/smoke_batch.sh [PORT]
set -euo pipefail
cd "$(dirname "$0")/.."

port="${1:-18090}"
base="http://127.0.0.1:${port}"
work="$(pwd)/tmp-smoke-batch"
rm -rf "$work"
mkdir -p "$work"

cleanup() {
    [ -n "${server_pid:-}" ] && kill -9 "$server_pid" 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

echo "== build =="
go build -o "$work/nocserve" ./cmd/nocserve
go build -o "$work/nocsim" ./cmd/nocsim

cat > "$work/request.json" <<'EOF'
{
  "archs": [
    {"name": "mesh4x4", "mesh": "4x4"},
    {"name": "scalefree", "ba": "24:2:3"}
  ],
  "points": [
    {"arch": 0, "pattern": "uniform", "bits": 128, "rate": 0.02, "warmupCycles": 300, "measureCycles": 1500, "seed": 1},
    {"arch": 0, "pattern": "transpose", "bits": 128, "rate": 0.1, "warmupCycles": 300, "measureCycles": 1500, "seed": 2},
    {"arch": 0, "pattern": "uniform", "bits": 128, "rate": 0.3, "warmupCycles": 300, "measureCycles": 1500, "seed": 3},
    {"arch": 1, "pattern": "hotspot:0:0.5", "bits": 96, "rate": 0.05, "warmupCycles": 300, "measureCycles": 1500, "seed": 4, "includeStats": true}
  ]
}
EOF

echo "== local batch runs =="
"$work/nocsim" -simbatch "$work/request.json" -parallel 1 -out "$work/local1.json" 2>/dev/null
"$work/nocsim" -simbatch "$work/request.json" -parallel 4 -out "$work/local4.json" 2>/dev/null
if ! cmp -s "$work/local1.json" "$work/local4.json"; then
    echo "smoke_batch: local batch JSON differs across -parallel settings" >&2
    diff "$work/local1.json" "$work/local4.json" >&2 || true
    exit 1
fi
grep -q '"stats"' "$work/local1.json" || {
    echo "smoke_batch: includeStats point carried no stats" >&2; exit 1; }

echo "== 10k-router sparse-table batch =="
# Demand-driven compilation at the scale the dense layout cannot reach:
# a 10,000-router scale-free topology would need an O(n^2) all-pairs
# table (~12 GB of spans alone), so the batch planner compiles only the
# union of the points' declared demand. The permutation point exercises
# the forward (source-tree) orientation, the hotspot point the reverse
# (hub-tree) one plus the lazy compile cache for its uniform escape
# traffic; -memstats reports the live heap the gate bounds below 1 GB.
cat > "$work/request10k.json" <<'EOF'
{
  "archs": [
    {"name": "scalefree10k", "ba": "10000:2:5"}
  ],
  "points": [
    {"arch": 0, "pattern": "transpose", "bits": 128, "rate": 0.02, "warmupCycles": 50, "measureCycles": 150, "seed": 9},
    {"arch": 0, "pattern": "hotspot:0:0.9", "bits": 128, "rate": 0.005, "warmupCycles": 50, "measureCycles": 150, "seed": 10, "includeStats": true}
  ]
}
EOF
"$work/nocsim" -simbatch "$work/request10k.json" -parallel 2 -memstats \
    -out "$work/local10k.json" 2> "$work/local10k.err"
cat "$work/local10k.err" >&2
grep -q '"delivered": 0,' "$work/local10k.json" && {
    echo "smoke_batch: a 10k-router point delivered nothing" >&2; exit 1; }
grep -q '"planMisses"' "$work/local10k.json" || {
    echo "smoke_batch: hotspot escape traffic produced no lazy plan misses" >&2; exit 1; }
heap=$(sed -n 's/^nocsim: heap after batch: .* \([0-9][0-9]*\) bytes from the OS.*$/\1/p' "$work/local10k.err")
[ -n "$heap" ] || { echo "smoke_batch: -memstats printed no heap figure" >&2; exit 1; }
if [ "$heap" -ge 1073741824 ]; then
    echo "smoke_batch: 10k-router batch claimed $heap bytes from the OS (>= 1 GB)" >&2
    exit 1
fi

echo "== 10k-router uniform batch via landmark routes =="
# Uniform (all-pairs) demand at 10,000 routers: the one workload the
# demand-driven compile cannot narrow. PR 9 refused it; the landmark
# route source accepts it — four landmark-rooted trees, an empty sparse
# table, every plan resolved through the bounded lazy cache (so every
# delivery is a plan miss) — and the same 1 GB heap gate must hold.
cat > "$work/request10ku.json" <<'EOF'
{
  "archs": [
    {"name": "scalefree10k", "ba": "10000:2:5"}
  ],
  "points": [
    {"arch": 0, "pattern": "uniform", "bits": 128, "rate": 0.002, "warmupCycles": 50, "measureCycles": 150, "seed": 11, "includeStats": true}
  ]
}
EOF
"$work/nocsim" -simbatch "$work/request10ku.json" -parallel 2 -memstats \
    -out "$work/local10ku.json" 2> "$work/local10ku.err"
cat "$work/local10ku.err" >&2
grep -q '"delivered": 0,' "$work/local10ku.json" && {
    echo "smoke_batch: the 10k-router uniform point delivered nothing" >&2; exit 1; }
grep -q '"planMisses"' "$work/local10ku.json" || {
    echo "smoke_batch: uniform landmark traffic produced no lazy plan misses" >&2; exit 1; }
heap=$(sed -n 's/^nocsim: heap after batch: .* \([0-9][0-9]*\) bytes from the OS.*$/\1/p' "$work/local10ku.err")
[ -n "$heap" ] || { echo "smoke_batch: -memstats printed no heap figure for the uniform batch" >&2; exit 1; }
if [ "$heap" -ge 1073741824 ]; then
    echo "smoke_batch: 10k-router uniform batch claimed $heap bytes from the OS (>= 1 GB)" >&2
    exit 1
fi

echo "== start daemon =="
"$work/nocserve" -addr "127.0.0.1:${port}" -cache-dir "$work/cache" \
    -drain-timeout 60s >"$work/nocserve.log" 2>&1 &
server_pid=$!

for i in $(seq 1 50); do
    if curl -sf "$base/healthz" >/dev/null 2>&1; then break; fi
    if ! kill -0 "$server_pid" 2>/dev/null; then
        echo "smoke_batch: daemon died at startup" >&2
        cat "$work/nocserve.log" >&2
        exit 1
    fi
    sleep 0.2
done
curl -sf "$base/healthz" >/dev/null || { echo "smoke_batch: daemon never became healthy" >&2; exit 1; }

echo "== POST /v1/simulate?wait=1 =="
curl -sf -X POST -H 'Content-Type: application/json' \
    --data-binary @"$work/request.json" -D "$work/headers1" \
    "$base/v1/simulate?wait=1" > "$work/remote.json"
if ! cmp -s "$work/local1.json" "$work/remote.json"; then
    echo "smoke_batch: /v1/simulate response differs from -parallel 1 local run" >&2
    diff "$work/local1.json" "$work/remote.json" >&2 || true
    exit 1
fi

echo "== repeat submission must hit the cache =="
curl -sf -X POST -H 'Content-Type: application/json' \
    --data-binary @"$work/request.json" -D "$work/headers2" \
    "$base/v1/simulate?wait=1" > "$work/remote2.json"
cmp -s "$work/remote.json" "$work/remote2.json" || {
    echo "smoke_batch: repeat submission returned different bytes" >&2; exit 1; }
grep -qi '^X-Nocserve-Path: cache' "$work/headers2" || {
    echo "smoke_batch: repeat submission was not served from the cache" >&2
    cat "$work/headers2" >&2
    exit 1
}

echo "== result stays addressable by content key =="
key=$(tr -d '\r' < "$work/headers1" | sed -n 's/^X-Nocserve-Key: \(.*\)$/\1/pi')
[ -n "$key" ] || { echo "smoke_batch: no content key in response headers" >&2; exit 1; }
curl -sf "$base/v1/results/$key" > "$work/bykey.json"
cmp -s "$work/remote.json" "$work/bykey.json" || {
    echo "smoke_batch: GET /v1/results/$key differs from the simulate response" >&2; exit 1; }

kill "$server_pid" 2>/dev/null || true
echo "smoke_batch: OK (local determinism, service byte-identity, cache hit, key fetch)"
