#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark (its own module)
# and runs it. Everything the build and the run write stays under
# .bench_build/ in the checkout (Go build cache, temp files, WAL dirs, spans).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/bench" .
exec "$build/bench" -root "$root" "$@"
