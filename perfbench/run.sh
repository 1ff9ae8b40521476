#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it from the checkout's root. Every build and run artifact (Go
# build cache, binary, data directories, span files) stays under
# .bench_build in that root.
#
#   bash perfbench/run.sh --workload point-durable --seed 1 --seconds 15 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
# XDG_CONFIG_HOME keeps the go command's own files (telemetry counters)
# inside the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-mod=mod
(cd "$here" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" -workdir "$out" "$@"
