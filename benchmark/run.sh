#!/usr/bin/env bash
# Builds the benchmark, cmd/unizk-server and cmd/unizk-cluster from the
# checkout's sources and runs one benchmark run; arguments go to the
# program (see README.md). Everything the build writes stays under
# .bench_build/ at the root of the checkout.
set -euo pipefail
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/bin/" . unizk/cmd/unizk-server unizk/cmd/unizk-cluster
exec "$build/bin/benchmark" -bin "$build/bin" "$@"
