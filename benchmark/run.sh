#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run from
# the repository root:
#
#   bash benchmark/run.sh --workload expand-cold --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary, the generated worlds
# (removed at the end of each run) and the span files of traced runs.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off

(cd "$here" && go build -o "$out/qgbench" .)
exec "$out/qgbench" --workdir "$out/benchmark" "$@"
