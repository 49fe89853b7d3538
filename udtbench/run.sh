#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given flags,
# e.g. bash udtbench/run.sh --workload bulk --seed 1 --seconds 30 --trace 0
# The build cache, binary and run outputs go under $CARGO_TARGET_DIR
# (default .bench_build), so nothing is written outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off
(cd "$root/udtbench" && go build -o "$out/udtbench" .) >&2
exec "$out/udtbench" -out "$out/udtbench-results" "$@"
