#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given
# arguments. Everything the build writes (Go build cache, the binary, span
# dumps) lands in .bench_build/ at the root of the checkout, so a run reads
# and writes nothing outside it. The working directory stays the caller's.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out"
# GOENV and XDG_CONFIG_HOME keep the go command off the user's configuration
# directory, which it would otherwise read settings from and write telemetry to.
env GOCACHE="$out/gocache" GOENV=off XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS= \
	go build -C "$here" -buildvcs=false -o "$out/gossipbench" . >&2
exec "$out/gossipbench" -spans "$out/spans" "$@"
