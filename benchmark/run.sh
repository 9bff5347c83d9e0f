#!/bin/sh
# The driver's entry point (BENCHMARK.json "command"), run from the root of
# a checkout: builds and runs the benchmark with Go's build cache and
# temporary files kept inside the checkout, under .bench_build.
set -eu
build="$(pwd)/.bench_build"
mkdir -p "$build/go-cache" "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp"
exec go run ./benchmark "$@"
