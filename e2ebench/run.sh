#!/usr/bin/env bash
# Builds the e2ebench command from the checkout this script sits in and runs
# it with the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload bulk-udp --seed 1 --seconds 30 --trace 0
#
# e2ebench is a module of its own (e2ebench/go.mod) that builds against the
# repository's module in the parent directory. The binary, the Go build
# cache and the traced run's output all go under .bench_build/ at the
# checkout root, so nothing is written outside it.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config/go/telemetry"
# Telemetry off: otherwise the go command starts a sidecar process that
# outlives the build.
printf 'off\n' > "$build/config/go/telemetry/mode"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C e2ebench build -buildvcs=false -o "$build/e2ebench.bin" .
exec "$build/e2ebench.bin" "$@"
