#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it; the
# arguments pass through, e.g.
#
#   bash perfbench/run.sh --workload am-pingpong --seed 1 --seconds 10 --trace 0
#
# Build output, the Go build cache and span files stay in .bench_build at
# the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
cd "$root"
exec "$build/perfbench" "$@"
