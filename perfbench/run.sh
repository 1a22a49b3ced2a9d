#!/usr/bin/env bash
# Builds the ccsvm-perf benchmark from source and runs it with the given
# arguments, from the root of a checkout:
#
#	bash perfbench/run.sh --workload paper-ccsvm --seed 42 --seconds 10 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build (or
# $CARGO_TARGET_DIR when set), so nothing is written outside the checkout and
# no network is used. A directory holding only the benchmark has no simulator
# to build against, so the build, and with it this script, fails there.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"

export GOCACHE=$out/go-cache GOMODCACHE=$out/go-mod GOPATH=$out/go-path
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

go -C perfbench build -o "$out/ccsvm-perf" .
exec "$out/ccsvm-perf" -trace-dir "$out/trace" "$@"
