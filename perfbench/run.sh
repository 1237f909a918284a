#!/usr/bin/env bash
# Builds the benchmark from the checkout this script sits in, then runs it
# from the checkout root with the given arguments, for example
#
#   bash perfbench/run.sh --workload engine-mix --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build and module caches, the Go tool's own state and
# the span files stay under .bench_build/ in the checkout root. Outside a
# checkout (no go.mod one level up) the build fails and the script exits
# non-zero.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
