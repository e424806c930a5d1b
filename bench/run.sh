#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the
# arguments given. Build outputs and the Go build cache stay inside the
# checkout, under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/parsim-bench" .)
cd "$root"
exec "$build/parsim-bench" "$@"
