#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed
# through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload live-calls --seed 1 --seconds 20 --trace 0
#
# The Go build cache, module cache, temporary files and the binary all
# live under .bench_build/ in the repository root, so a run writes
# nothing outside the checkout.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
