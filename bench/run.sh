#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout (build cache and
# temporary files included, under .bench_build/) and runs it from the
# repository root with the caller's arguments.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/tdbench" .
cd "$root"
exec "$build/tdbench" "$@"
