#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed on.
# Run it from the root of the repository:
#
#   bash perfbench/run.sh --workload ga_table2 --seed 1 --seconds 10 --trace 0
#
# The build cache, temporary files and the binary stay in .bench_build/ at
# the root, so nothing is written outside the checkout. Without the rest of
# the repository (perfbench/go.mod replaces gahitec with ../) the build
# fails and no result is printed.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
