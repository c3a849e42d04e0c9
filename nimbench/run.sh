#!/usr/bin/env bash
# Builds the benchmark from source inside this checkout and runs it:
#
#   bash nimbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Build products, the Go build cache and span traces all stay under
# .bench_build/ at the checkout root, so the benchmark reads and writes
# nothing outside the checkout. Compiler output goes to stderr; the last
# line of stdout is the result object.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/nimbench" && go build -o "$out/nimbench" .) >&2
cd "$root"
exec "$out/nimbench" "$@"
