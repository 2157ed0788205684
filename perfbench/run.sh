#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and runs one workload:
#
#   bash perfbench/run.sh --workload scale --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. The Go build cache, the binary and the
# trace files all stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/home"
(
	cd "$root/perfbench"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOTOOLCHAIN=local GOFLAGS= \
		GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
		go build -o "$out/perfbench" .
)
exec "$out/perfbench" -out "$out" "$@"
