#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (compiler cache and
# temporary files included, so nothing is written outside the checkout) and
# runs it with every argument passed through. Run from the repository root:
#
#	bash perfbench/run.sh --workload search --seed 1 --seconds 15 --trace 0
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
