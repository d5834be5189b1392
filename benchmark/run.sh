#!/usr/bin/env bash
# Builds the harness from source and runs it with the given arguments.
# Everything the build writes (binary, Go build cache, temporary files)
# stays under .bench_build in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" go build -o "$out/harvest-benchmark" ./benchmark
exec "$out/harvest-benchmark" "$@"
