#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Everything the go tool writes (build cache, temp files, the binary)
# stays under .bench_build/ so a run touches nothing outside the
# checkout. All arguments are passed to the benchmark; see README.md.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOENV=off

(cd "$root/bench" && go build -trimpath -o "$out/bsrng-bench" .)
cd "$root"
exec "$out/bsrng-bench" "$@"
