#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from
# the repository root:
#
#   bash benchmark/run.sh --workload browse --seed 1 --seconds 10 --trace 0
#
# Everything it writes (Go build cache, binary, databases, trace files)
# stays under .bench_build in the current directory. The last line of
# standard output is the JSON result; build output goes to standard error.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

go -C "$root/benchmark" build -o "$out/cadcam-benchmark" . >&2
exec "$out/cadcam-benchmark" -dir "$out" "$@"
