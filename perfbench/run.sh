#!/usr/bin/env bash
# Builds the serving-path benchmark from the checkout's sources and runs
# it. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-miss --seed 1 --seconds 12 --trace 0
#
# Everything the build writes (Go build cache, temp files, the binary,
# trace span files) stays under .bench_build/ in the checkout.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

# The build runs in a process group of its own, so an interrupt stops
# the compiler processes too and waits for them.
set -m
(cd "$here" && exec go build -buildvcs=false -o "$out/perfbench" .) &
build=$!
trap 'kill -TERM -- "-$build" 2>/dev/null; wait "$build"; exit 130' INT TERM
wait "$build"
trap - INT TERM
set +m

# The benchmark replaces this shell, so signals reach it directly; it
# shuts its server down on SIGINT and SIGTERM.
exec "$out/perfbench" "$@"
