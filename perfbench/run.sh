#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload serve-hit --seed 1 --seconds 8 --trace 0
#
# Run from the repository root. Everything the build writes (the binary,
# the Go caches, temporary files, the go command's own config and
# telemetry) and the traced runs' spans stay under .bench_build/ in the
# checkout. The module needs nothing from the network.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gopath/pkg/mod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off GOPROXY=off GOSUMDB=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
