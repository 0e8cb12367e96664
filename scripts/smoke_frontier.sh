#!/usr/bin/env bash
# Frontier smoke test: stream POST /v1/frontier end-to-end against a
# live nocserve on the AES ACG, assert the stream carries >= 3 distinct
# non-dominated points in descending-cost order plus a trailing summary,
# check the repeat submission is served from the cache byte-identically,
# the document stays addressable by content key, and a local
# `nocsynth -frontier` run of the same problem produces the exact same
# bytes. A validated submission ("validate": true, per-point zero-load
# simulation), `experiments -table floorplan` and `experiments -table aes`
# (the Section 5.2 co-simulation) are compared byte for byte against their
# goldens in scripts/golden. Needs only bash, curl and
# the go toolchain.
#
# Usage: scripts/smoke_frontier.sh [PORT]
set -euo pipefail
cd "$(dirname "$0")/.."

port="${1:-18095}"
base="http://127.0.0.1:${port}"
work="$(pwd)/tmp-smoke-frontier"
rm -rf "$work"
mkdir -p "$work"

cleanup() {
    [ -n "${server_pid:-}" ] && kill -9 "$server_pid" 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

echo "== build =="
go build -o "$work/nocserve" ./cmd/nocserve
go build -o "$work/nocsynth" ./cmd/nocsynth
go build -o "$work/experiments" ./cmd/experiments

"$work/experiments" -dumpacg aes -out "$work/aes.json"
{
    printf '{"graph": '
    cat "$work/aes.json"
    printf ', "options": {"mode": "links", "matchLimit": 1}, "points": 8}'
} > "$work/request.json"
{
    printf '{"graph": '
    cat "$work/aes.json"
    printf ', "options": {"mode": "links", "matchLimit": 1}, "points": 8, "validate": true}'
} > "$work/request_validate.json"

echo "== start daemon =="
"$work/nocserve" -addr "127.0.0.1:${port}" -cache-dir "$work/cache" \
    -drain-timeout 120s >"$work/nocserve.log" 2>&1 &
server_pid=$!

for i in $(seq 1 50); do
    if curl -sf "$base/healthz" >/dev/null 2>&1; then break; fi
    if ! kill -0 "$server_pid" 2>/dev/null; then
        echo "smoke_frontier: daemon died at startup" >&2
        cat "$work/nocserve.log" >&2
        exit 1
    fi
    sleep 0.2
done
curl -sf "$base/healthz" >/dev/null || { echo "smoke_frontier: daemon never became healthy" >&2; exit 1; }

echo "== POST /v1/frontier?wait=1 (streamed) =="
curl -sf -X POST -H 'Content-Type: application/json' \
    --data-binary @"$work/request.json" -D "$work/headers1" \
    "$base/v1/frontier?wait=1" > "$work/stream1.ndjson"

grep -qi '^Content-Type: application/x-ndjson' "$work/headers1" || {
    echo "smoke_frontier: response is not NDJSON" >&2; cat "$work/headers1" >&2; exit 1; }

points=$(grep -c '"epsilon"' "$work/stream1.ndjson" || true)
if [ "$points" -lt 3 ]; then
    echo "smoke_frontier: only $points frontier points streamed, want >= 3" >&2
    cat "$work/stream1.ndjson" >&2
    exit 1
fi
grep -q '"summary"' "$work/stream1.ndjson" || {
    echo "smoke_frontier: stream has no trailing summary record" >&2; exit 1; }

# Non-domination: the streamed costs must be strictly decreasing.
costs=$(sed -n 's/.*"cost":\([0-9.eE+-]*\),.*/\1/p' "$work/stream1.ndjson")
prev=""
for c in $costs; do
    if [ -n "$prev" ] && ! awk -v a="$c" -v b="$prev" 'BEGIN{exit !(a < b)}'; then
        echo "smoke_frontier: dominated point leaked (cost $c after $prev)" >&2
        cat "$work/stream1.ndjson" >&2
        exit 1
    fi
    prev="$c"
done

echo "== repeat submission must replay the cached stream =="
curl -sf -X POST -H 'Content-Type: application/json' \
    --data-binary @"$work/request.json" -D "$work/headers2" \
    "$base/v1/frontier?wait=1" > "$work/stream2.ndjson"
cmp -s "$work/stream1.ndjson" "$work/stream2.ndjson" || {
    echo "smoke_frontier: repeat submission returned different bytes" >&2; exit 1; }
grep -qi '^X-Nocserve-Path: cache' "$work/headers2" || {
    echo "smoke_frontier: repeat submission was not served from the cache" >&2
    cat "$work/headers2" >&2
    exit 1
}

echo "== document stays addressable by content key =="
key=$(tr -d '\r' < "$work/headers1" | sed -n 's/^X-Nocserve-Key: \(.*\)$/\1/pi')
[ -n "$key" ] || { echo "smoke_frontier: no content key in response headers" >&2; exit 1; }
curl -sf "$base/v1/results/$key" > "$work/bykey.ndjson"
cmp -s "$work/stream1.ndjson" "$work/bykey.ndjson" || {
    echo "smoke_frontier: GET /v1/results/$key differs from the streamed response" >&2; exit 1; }

echo "== local nocsynth -frontier must match the service bytes =="
"$work/nocsynth" -acg "$work/aes.json" -mode links -frontier -points 8 \
    -parallel 2 > "$work/local.ndjson" 2>/dev/null
cmp -s "$work/stream1.ndjson" "$work/local.ndjson" || {
    echo "smoke_frontier: local -frontier output differs from the service stream" >&2
    diff "$work/stream1.ndjson" "$work/local.ndjson" >&2 || true
    exit 1
}

echo "== validated frontier must match its golden =="
curl -sf -X POST -H 'Content-Type: application/json' \
    --data-binary @"$work/request_validate.json" \
    "$base/v1/frontier?wait=1" > "$work/validate.ndjson"
cmp -s scripts/golden/frontier_aes_validate.ndjson "$work/validate.ndjson" || {
    echo "smoke_frontier: validated frontier differs from scripts/golden/frontier_aes_validate.ndjson" >&2
    diff scripts/golden/frontier_aes_validate.ndjson "$work/validate.ndjson" >&2 || true
    exit 1
}

kill "$server_pid" 2>/dev/null || true

echo "== experiments -table floorplan must match its golden =="
"$work/experiments" -table floorplan > "$work/table_floorplan.txt"
cmp -s scripts/golden/table_floorplan.txt "$work/table_floorplan.txt" || {
    echo "smoke_frontier: floorplan table differs from scripts/golden/table_floorplan.txt" >&2
    diff scripts/golden/table_floorplan.txt "$work/table_floorplan.txt" >&2 || true
    exit 1
}

echo "== experiments -table aes must match its golden =="
"$work/experiments" -table aes > "$work/table_aes.txt"
cmp -s scripts/golden/table_aes.txt "$work/table_aes.txt" || {
    echo "smoke_frontier: AES table differs from scripts/golden/table_aes.txt" >&2
    diff scripts/golden/table_aes.txt "$work/table_aes.txt" >&2 || true
    exit 1
}

echo "smoke_frontier: OK ($points non-dominated points, cache byte-identity, key fetch, local/service identity, validated, floorplan and AES table goldens)"
