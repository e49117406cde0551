#!/usr/bin/env bash
# Builds the programs under test (mctd, paperbench, tracegen) and the
# benchmark itself from source, then runs one benchmark measurement.
#
# Run from the repository root:
#
#   bash perfbench/run.sh --workload spec-mix --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build), including the Go build
# cache and the go command's config and telemetry directory. The last line
# on stdout is the result object.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/tmp"
build="$(cd "$build" && pwd)"
export GOTOOLCHAIN=local
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"

go build -o "$build/bin/" ./cmd/mctd ./cmd/paperbench ./cmd/tracegen
go -C perfbench build -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" -bin "$build/bin" -work "$build" "$@"
