#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it from that root, so that BENCHMARK.json resolves and
# nothing is written outside the checkout (Go's build cache included).
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
commit=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
go build -C "$root/bench" -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/bench" .
cd "$root"
exec "$out/bench" "$@"
