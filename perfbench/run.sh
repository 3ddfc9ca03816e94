#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload matching-gnp-stream --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, binary, traces) stays under
# .bench_build in the current directory, and no module is downloaded.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
(cd "$here" && go build -buildvcs=false -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" "$@"
