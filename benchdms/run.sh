#!/usr/bin/env bash
# Builds dmsd and the benchmark from this checkout, then runs one workload:
#
#   bash benchdms/run.sh --workload serve_read --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind goes to .bench_build/ at
# the checkout root; nothing is read or written outside the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOTELEMETRY=off
export GOPROXY=off

# Build output goes to the log; a failed build exits non-zero and prints
# no result.
if ! { go build -o "$build/dmsd" ./cmd/dmsd &&
	(cd benchdms && go build -o "$build/benchdms" .); } >"$build/build.log" 2>&1; then
	cat "$build/build.log" >&2
	echo "benchdms: build failed" >&2
	exit 1
fi

exec "$build/benchdms" -dmsd "$build/dmsd" -out "$build/results" "$@"
