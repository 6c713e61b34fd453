#!/usr/bin/env bash
# Builds the serving benchmark from the checkout it is run in and runs it,
# passing every argument through. Run it from the repository root:
#
#	bash servebench/run.sh --workload lookup --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the benchmark's data directories all
# stay under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/servebench" && go build -o "$out/servebench" .)
exec "$out/servebench" -workdir "$out" "$@"
