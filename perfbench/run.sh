#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs one workload:
#
#   bash perfbench/run.sh --workload conf_lineage --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binary, the
# disk engine's data directory) stays under .bench_build/ at the root
# of the checkout. Build output goes to standard error, so the last
# line of standard output is the benchmark's JSON result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" -data "$out/data" "$@"
