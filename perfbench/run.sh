#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in, then
# runs it. Run from the repository root, e.g.
#
#   bash perfbench/run.sh --workload seller --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, span
# dumps, the exchange workload's data dir) goes under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOFLAGS= GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
