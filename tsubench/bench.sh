#!/usr/bin/env bash
# Builds tsubench from this checkout's source and runs it with the
# given arguments (see main.go). Run from the repository root:
#
#   bash tsubench/bench.sh --workload fattree-churn --seed 1 --seconds 10 --trace 0
#
# Every file the build and the run write stays under the build
# directory ($CARGO_TARGET_DIR, default .bench_build) in the checkout.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config \
	GOPATH=$build/gopath GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/tsubench" && go build -o "$build/tsubench" .)
exec "$build/tsubench" -out "$build/tsubench-run" "$@"
