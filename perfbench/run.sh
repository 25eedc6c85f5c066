#!/usr/bin/env bash
# Builds the benchmark binary from source and runs it.
#
#   bash perfbench/run.sh --workload interactive --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the runs leave
# behind (Go build cache, binary, traces, run records) goes under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/bin"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOENV=off
export GOPROXY=off
export CGO_ENABLED=0

go -C "$root/perfbench" build -o "$out/bin/perfbench" . >&2
exec "$out/bin/perfbench" -root "$root" "$@"
