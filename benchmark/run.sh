#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it with the given flags, from the checkout's root:
#
#   bash benchmark/run.sh --workload synth-suite --seed 0 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the toolchain's temporary files
# stay under $CARGO_TARGET_DIR (default .bench_build), and the run's
# scratch stores under .bench_build, both in the checkout.
set -euo pipefail

out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C benchmark build -o "$out/benchmark" .
exec "$out/benchmark" "$@"
