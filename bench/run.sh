#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags,
# e.g.  bash bench/run.sh --workload table2 --seed 4000 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout: the Go build cache, temporary files, the binary
# and the default output directory. Outside a full checkout (bench/
# without the module it replaces) the build fails and the script exits
# non-zero without printing a result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=

(cd "$root/bench" && go build -o "$build/robotack-bench" .)
exec "$build/robotack-bench" "$@"
