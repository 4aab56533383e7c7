#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of
# the checkout and runs it from there, so every file the build and the
# run leave behind (Go build cache included) stays inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$build/" ./cmd/pidcan-bench ./cmd/benchcmp)
cd "$root"

exec "$build/pidcan-bench" "$@"
