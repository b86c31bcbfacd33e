#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run from the
# repository root, for example:
#
#   bash perfbench/run.sh --workload prod-open --seed 1 --seconds 28 --trace 0
#
# Everything the build and the run write (Go build and module caches, the Go
# tool's config directory, temporary build files, the binary, tiered-store
# cold files) stays under .bench_build/.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/config" "$out/tmp" "$out/run"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --workdir "$out/run" "$@"
