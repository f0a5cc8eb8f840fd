#!/usr/bin/env bash
# Builds cmd/hypermisd and the perfbench program from the checkout this
# script is run in, then runs perfbench with the given arguments. Run
# it from the repository root, for example:
#
#   bash perfbench/run.sh --workload solve-small --seed 1 --seconds 25 --trace 0
#
# Every build product, Go cache and scratch file goes under .bench_build/
# in the checkout; nothing is written outside it.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly

go build -o "$out/bin/hypermisd" ./cmd/hypermisd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --daemon "$out/bin/hypermisd" --workdir "$out" "$@"
