#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#
#   bash perfbench/run.sh --workload lookup --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --selftest
#   bash perfbench/run.sh --smoke
#   bash perfbench/run.sh --compare DIR_A DIR_B
#
# Run it from the repository root. Every build artifact, cache and data
# directory stays under .bench_build/ (or $CARGO_TARGET_DIR when set).
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
export LBSQ_BENCH_DIR="$out"

(cd "$root/perfbench" && go build -o "$out/lbsq-perfbench" .)
exec "$out/lbsq-perfbench" "$@"
