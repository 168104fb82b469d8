#!/usr/bin/env bash
# The benchmark's build file: builds ./bench (package main of the root module)
# and runs it with the given arguments. Everything the build writes — Go's
# build cache, its temp files, the binary — goes under .bench_build/ in the
# checkout, and the module proxy is off: the build needs nothing beyond the
# checkout and the Go toolchain.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly
cd "$root"
go build -o "$build/hyperdb-bench" ./bench >&2
exec "$build/hyperdb-bench" "$@"
