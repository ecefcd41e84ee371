#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the checkout.
# Everything it writes — Go build cache, binary, temp dirs, results — stays
# inside the checkout (.bench_build/ and bench/out/, both git-ignored).
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
export TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" # the go command's telemetry counters
(cd "$root/bench" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
