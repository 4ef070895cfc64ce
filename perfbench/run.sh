#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload channel-serial --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the Go toolchain writes (build
# cache, module cache, telemetry and config) stays under .bench_build.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOENV=off GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
