#!/usr/bin/env bash
# Builds flowbench from source and runs one workload. Run from anywhere in
# a checkout of the repository:
#
#   bash flowbench/run.sh --workload design --seed 1 --seconds 30 --trace 0
#
# The Go build cache, the binary and traces stay under .bench_build/ at the
# repository root.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build/flowbench"
mkdir -p "$out/tmp"

(
	cd "$root/flowbench"
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
		XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off \
		go build -o "$out/flowbench" .
)

cd "$root"
exec "$out/flowbench" "$@"
