#!/usr/bin/env bash
# Builds the campaign benchmark from this checkout and runs it from the
# repository root. Every build and run artefact stays under .bench_build.
#
#   bash campbench/run.sh --workload full --seed 2020 --seconds 12 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/campbench"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off
go -C campbench build -o "$out/campbench/campbench" .
exec "$out/campbench/campbench" -out "$out/campbench" "$@"
