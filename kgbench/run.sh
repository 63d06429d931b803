#!/usr/bin/env bash
# Builds kgvoted and the benchmark driver from this checkout's sources,
# then runs one benchmark workload against a live kgvoted:
#
#   bash kgbench/run.sh --workload vote-loop --seed 1 --seconds 25 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binaries, daemon data directories, results) stays
# under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/kgbench"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOFLAGS=-buildvcs=false GOWORK=off GOTOOLCHAIN=local GOPROXY=off
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export CGO_ENABLED=0
# With telemetry on (the default "local" mode) every go command forks a
# detached sidecar that can outlive the build; switch it off.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$out/kgvoted" ./cmd/kgvoted
go -C kgbench build -o "$out/kgbench" .
exec "$out/kgbench" -kgvoted "$out/kgvoted" -out "$out/results" "$@"
