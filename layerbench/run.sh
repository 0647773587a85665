#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash layerbench/run.sh --workload capture-oltp --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write (Go build cache, binary, temporary
# trace files) stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
build="${root}/.bench_build"
mkdir -p "${build}/tmp"
export GOCACHE="${build}/gocache" GOMODCACHE="${build}/gomodcache" GOPATH="${build}/gopath"
export GOTMPDIR="${build}/tmp" TMPDIR="${build}/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false

go -C "${root}/layerbench" build -o "${build}/layerbench" .
exec "${build}/layerbench" "$@"
