#!/usr/bin/env bash
# run.sh — build the benchmark program from source and run it.
#
#   bash benchmark/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--repeat <n>]
#
# The program is this directory's test binary (see README.md for why), built
# into .bench_build/ at the root of the checkout. The Go build cache, Go's
# temporary files and the stable logs the live workloads write all stay
# inside .bench_build/ too, so a run reads and writes only its checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOENV=off
export TMPDIR="$build/tmp"

bin="$build/synergy-bench.test"
if [[ ! -x "$bin" ]] || [[ -n "$(find "$root" -path "$build" -prune -o \( -name '*.go' -o -name go.mod \) -newer "$bin" -print -quit)" ]]; then
    go -C "$here" test -c -o "$bin" . >&2
fi

cd "$root"
exec "$bin" "$@"
