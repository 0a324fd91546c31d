#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
#
#   bash mdbench/run.sh --workload crawl --seed 1 --seconds 30 --trace 0
#   bash mdbench/run.sh compare BASE_RESULTS_DIR HEAD_RESULTS_DIR
#
# Build outputs, the Go build cache and result files go to .bench_build/
# at the repository root. The benchmark is its own module (mdbench/go.mod)
# that replaces mdlog with the checkout around it, so the build fails
# when that checkout is missing.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOENV=off GOPATH="$build/gopath" GOCACHE="$build/gocache" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C "$root/mdbench" build -o "$build/mdbench" .
cd "$root"
exec "$build/mdbench" "$@"
