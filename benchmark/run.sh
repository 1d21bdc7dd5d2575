#!/bin/sh
# Builds the benchmark program and runs it with the given arguments.
# Everything the Go tool and the run write stays inside the checkout,
# under .bench_build: build cache, temporary files, tool configuration,
# the built commands, inputs, outputs and results.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
(cd "$root/benchmark" && go build -o "$build/bin/benchmark" .)
exec "$build/bin/benchmark" "$@"
