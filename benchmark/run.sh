#!/usr/bin/env bash
# Builds scm-bench from this checkout and runs it with the given flags.
# Run it from the repository root:
#
#   bash benchmark/run.sh --workload sim-sweep --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, temp files) stays
# in .bench_build/ at the repository root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

(cd "$root/benchmark" && go build -buildvcs=false -o "$out/scm-bench" .)
exec "$out/scm-bench" "$@"
