#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#	bash perfbench/run.sh --workload refactor-loop --seed 1 --seconds 10 --trace 0
#
# Run from the root of the checkout. Everything the Go toolchain writes (build
# cache, telemetry, the binary) stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
