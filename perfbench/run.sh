#!/usr/bin/env bash
# Builds the PGB-Go benchmark from the source tree it sits in and runs it
# with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload grid-table7 --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes (Go build
# cache, binary, scratch data, trace files) stays under .bench_build/ in the
# current directory.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

(cd "$bench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
