#!/usr/bin/env bash
# Tier-1 verification gate: formatting, vet, build, the full test suite
# under the race detector, and vet + tests of the perfbench module.
# ROADMAP.md documents this as the gate every PR must keep green.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race ./...

# perfbench is a separate module, so the root ./... patterns above skip
# it; vetting and testing it here catches an API change that breaks the
# benchmark harness.
echo "== perfbench: go vet + go test =="
(cd perfbench && go vet ./... && go test ./...)

echo "verify: OK"
