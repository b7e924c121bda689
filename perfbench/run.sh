#!/usr/bin/env bash
# Builds perfbench and hmemd from this checkout into .bench_build/ and runs
# perfbench with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload figures-static --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (the Go build cache included) stays under
# .bench_build/, and no module is fetched: the benchmark imports only the
# repository's own packages.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local GOPROXY=off

go build -C perfbench -o "$build/perfbench" .
go build -C perfbench -o "$build/hmemd" hmem/cmd/hmemd
exec "$build/perfbench" -root "$root" -hmemd "$build/hmemd" "$@"
