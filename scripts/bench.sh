#!/usr/bin/env bash
# bench.sh — run the repository's benchmark suite and record a machine-read-
# able snapshot, so the performance trajectory of the hot paths (event queue,
# codecs, campaign runner, whole-experiment regeneration) is tracked in-tree.
#
#   scripts/bench.sh               # quick pass (1 iteration per benchmark)
#   BENCHTIME=0.5s scripts/bench.sh  # statistically meaningful pass
#   BENCH_OUT=out.json scripts/bench.sh
#   scripts/bench.sh --print-out   # print the output path and exit
#   scripts/bench.sh --gated       # only check.sh's alloc-gated benchmarks
#
# --gated runs exactly the set check.sh's alloc gate runs, each at the gate's
# own -benchtime, from the list the two scripts share (scripts/gated.list):
# the snapshot then reads what the gate reads. Its top-level "benchtime" is
# "gated", and each benchmark carries its own.
#
# The snapshot is written to BENCH_<UTC date>.json in the repository root. A
# snapshot is never overwritten: if today's file already exists, a -1, -2, …
# suffix is appended, so two runs on the same day both survive. BENCH_OUT
# names the file explicitly (no suffixing), BENCH_DIR redirects the snapshot
# out of the repository root, and BENCH_DATE pins the date stamp (the latter
# two exist mostly so check.sh can exercise the naming logic hermetically).
# The JSON format is documented in README.md "Benchmarks":
#
#   {
#     "date": "2026-08-06", "go": "go1.24.0", "gomaxprocs": 8,
#     "benchtime": "1x",
#     "benchmarks": [
#       {"package": "github.com/synergy-ft/synergy", "name": "BenchmarkFigure7",
#        "iterations": 1, "metrics": {"ns/op": 80915549, "B/op": 1234,
#        "allocs/op": 56, "min_ratio": 11.9}}
#     ]
#   }
set -euo pipefail

cd "$(dirname "$0")/.."

benchtime="${BENCHTIME:-1x}"
stamp="${BENCH_DATE:-$(date -u +%Y-%m-%d)}"
prefix="${BENCH_DIR:+${BENCH_DIR%/}/}"
if [[ -n "${BENCH_OUT:-}" ]]; then
    out="$BENCH_OUT"
else
    out="${prefix}BENCH_${stamp}.json"
    n=1
    while [[ -e "$out" ]]; do
        out="${prefix}BENCH_${stamp}-${n}.json"
        n=$((n + 1))
    done
fi

case "${1:-}" in
--print-out)
    echo "$out"
    exit 0
    ;;
--gated) gated=1 ;;
*) gated="" ;;
esac

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

if [[ -n "$gated" ]]; then
    benchtime="gated"
    echo "==> the alloc gate's benchmarks (scripts/gated.list), each at its own -benchtime"
    grep -v -e '^#' -e '^[[:space:]]*$' scripts/gated.list | while read -r pkg bench bt; do
        echo "benchtime: $bt"
        go test -run '^$' -bench "$bench" -benchmem -benchtime "$bt" "$pkg"
    done | tee "$raw"
else
    echo "==> go test -bench . -benchtime $benchtime (this runs the full suite once)"
    go test -run '^$' -bench . -benchmem -benchtime "$benchtime" ./... | tee "$raw"
fi

go_version="$(go env GOVERSION)"
gomaxprocs="$(go run ./scripts/internal/gomaxprocs 2>/dev/null || getconf _NPROCESSORS_ONLN)"

awk -v date="$stamp" -v gover="$go_version" \
    -v procs="$gomaxprocs" -v benchtime="$benchtime" '
BEGIN {
    printf "{\n  \"date\": \"%s\",\n  \"go\": \"%s\",\n  \"gomaxprocs\": %s,\n  \"benchtime\": \"%s\",\n  \"benchmarks\": [", date, gover, procs, benchtime
    n = 0
}
/^pkg: / { pkg = $2 }
/^benchtime: / { bt = $2 }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)   # strip the -GOMAXPROCS suffix
    iters = $2
    metrics = ""
    # Remaining fields come in (value, unit) pairs: ns/op, B/op, allocs/op,
    # and any custom ReportMetric units (min_ratio, p2_type1, ...).
    for (i = 3; i + 1 <= NF; i += 2) {
        if (metrics != "") metrics = metrics ", "
        metrics = metrics sprintf("\"%s\": %s", $(i + 1), $i)
    }
    if (n++) printf ","
    own = bt == "" ? "" : sprintf("\"benchtime\": \"%s\", ", bt)
    printf "\n    {\"package\": \"%s\", \"name\": \"%s\", %s\"iterations\": %s, \"metrics\": {%s}}", pkg, name, own, iters, metrics
}
END { print "\n  ]\n}" }
' "$raw" > "$out"

echo "==> wrote $out ($(grep -c '"name"' "$out") benchmarks)"
