#!/usr/bin/env bash
# Builds valleybench from this checkout and runs it with the given
# arguments. Run from the repository root:
#
#   bash benchmark/run.sh --workload suite --seed 1 --seconds 15 --trace 0
#   bash benchmark/run.sh compare PARENT_RUNS CHANGE_RUNS
#
# Everything the Go toolchain writes (binaries, build cache, go-command
# state) stays under .bench_build/ in the checkout, and module fetches
# are disabled: the benchmark is stdlib-only and builds offline.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-build" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C "$root/benchmark" build -o "$out/valleybench" ./valleybench
exec "$out/valleybench" "$@"
