#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it
# with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload rounds --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --self-test
#
# Everything the build leaves behind (binary, Go build cache, telemetry,
# temp files) stays in .bench_build/ of the checkout. Run it from the
# repository root: the benchmark module points at ../ for the repo.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
