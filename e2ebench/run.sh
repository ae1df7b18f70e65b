#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout and runs it:
#
#   bash e2ebench/run.sh --workload db-clients --seed 1 --seconds 10 --trace 0
#
# Run from the root of the repository. Everything the build and the run
# write stays under .bench_build/ (Go's build cache included), and the
# toolchain is never fetched: GOTOOLCHAIN=local, GOPROXY=off.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/gotmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/gotmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$root/e2ebench" && go build -o "$out/bin/e2ebench" .)
exec "$out/bin/e2ebench" --out "$out/e2ebench" "$@"
