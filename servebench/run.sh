#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it with the given flags,
# e.g. bash servebench/run.sh --workload repeat-solve --seed 1 --seconds 10 --trace 0
# Run from the repository root. Build outputs, the Go build cache and the
# span files stay under .bench_build/ in the working tree.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod
(cd "$root/servebench" && go build -o "$out/servebench" .)
exec "$out/servebench" "$@"
