#!/usr/bin/env bash
# Builds the pipeline benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash pipebench/run.sh --workload dps-train --seed 1 --seconds 15 --trace 0
#
# Every file the build and the run write stays under .bench_build in the
# current directory: the Go build cache, the binary, and the run's CSVs,
# spill files and traces.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C "$root/pipebench" build -o "$build/pipebench" . >&2
exec "$build/pipebench" -out "$build/pipebench-out" "$@"
