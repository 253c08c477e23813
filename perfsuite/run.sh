#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfsuite/run.sh --workload audit-cold --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, generated WANs, result files) stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export CGO_ENABLED=0

(cd "$root/perfsuite" && go build -o "$out/hoyanperf" .)
exec "$out/hoyanperf" -work "$out/work" "$@"
