#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run it from the repository root, e.g.
#
#   bash benchmark/run.sh --workload sweep-warm --seed 7 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, module cache, its
# config and telemetry) and everything the benchmark writes stays under
# .bench_build/ in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C benchmark build -o "$out/whirlbenchmark" .
exec "$out/whirlbenchmark" -workdir "$out/work" "$@"
