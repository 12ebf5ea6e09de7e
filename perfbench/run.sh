#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it with the given
# flags. Run it from the repository root:
#
#   bash perfbench/run.sh --workload json-small --seed 1 --seconds 15 --trace 0
#
# The Go build cache, the binary and the trace files stay under
# .bench_build/ in the repository root; nothing is fetched.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
