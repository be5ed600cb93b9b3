#!/usr/bin/env bash
# Builds the benchmark program from this checkout's sources and runs it with
# the given flags, from the root of the checkout:
#
#   bash benchmark/run.sh --workload swap-large --seed 42 --seconds 10 --trace 0
#
# Build outputs and the Go build cache live in .bench_build (or
# $CARGO_TARGET_DIR when set), so nothing is read or written outside the
# checkout. The last line of standard output is the result JSON.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build"

export GOCACHE=$build/gocache
export GOPATH=$build/gopath
export XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local

(cd "$(dirname "$0")" && go build -o "$build/svagc-benchmark" .)
exec "$build/svagc-benchmark" "$@"
