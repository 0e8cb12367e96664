#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload synth-cold --seed 1 --seconds 20 --trace 0
#
# Every build product (binary, Go build cache) and the span files of
# traced runs land in the build directory, $CARGO_TARGET_DIR when set,
# else .bench_build at the checkout root, so nothing is written outside
# the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
abs="$(cd "$build" && pwd)"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
export GOCACHE="$abs/gocache" GOPATH="$abs/gopath" XDG_CONFIG_HOME="$abs/config"
(cd perfbench && go build -o "$abs/perfbench" .)
exec "$abs/perfbench" -out "$build/perfbench-out" "$@"
