#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it; every argument is
# passed through (see main.go). Run from the repository root:
#
#   bash perfbench/run.sh --workload sim-10k --seed 7 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the generated input trace all live
# under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
"$out/perfbench" --prepare "$@"
exec "$out/perfbench" "$@"
