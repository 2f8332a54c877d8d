#!/usr/bin/env bash
# Builds the wall-clock benchmark from source and runs it. Run from the root
# of a checkout:
#
#   bash wallbench/run.sh --workload txn --seed 1 --seconds 30 --trace 0
#
# Every build artifact (Go build cache, module cache, toolchain telemetry,
# binary) stays under .bench_build/ in the checkout.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build/wallbench"
mkdir -p "$out/gocache" "$out/gomod" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local \
	GOFLAGS=-mod=mod GOPROXY=off GOENV=off GOWORK=off

(cd "$root/wallbench" && go build -o "$out/wallbench" .)
exec "$out/wallbench" "$@"
