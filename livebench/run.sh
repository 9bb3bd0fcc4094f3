#!/usr/bin/env bash
# Builds the live-path benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash livebench/run.sh --workload flash-crowd --seed 1 --seconds 20 --trace 0
#
# livebench is a Go module of its own that builds the repository's
# packages from ../ (see livebench/go.mod). Everything the build and the
# run write stays under .bench_build/ in the current directory: the Go
# build cache, temporary files, the binary and the span files of traced
# runs.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/livebench"
mkdir -p "$out/gocache" "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOFLAGS=-mod=mod
export GOWORK=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOTELEMETRY=off

(cd livebench && go build -o "$out/livebench" .)
exec "$out/livebench" "$@"
