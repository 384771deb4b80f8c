#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (build cache, temporary
# files and the go command's own settings included, so nothing is written
# outside the checkout) and runs it from the checkout root with the arguments
# given. BENCHMARK.json names this script as the run command.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
