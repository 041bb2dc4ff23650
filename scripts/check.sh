#!/usr/bin/env bash
# check.sh — the repository's full static + dynamic gate, run on every PR.
#
#   gofmt        formatting is canonical
#   go build     everything compiles
#   go vet       toolchain static analysis
#   benchmark vet  the nested benchmark/ module is not part of ./..., so a
#                renamed internal/live or internal/coord symbol would break the
#                repository's ruler silently: vet compiles it (and only that)
#   synergy-lint protocol-aware analysis (see DESIGN.md "Code disciplines")
#   go test -race  full suite with the race detector patrolling the live
#                  middleware's transport and recovery paths and the parallel
#                  campaign runner's fan-out
#   fuzz smoke   each codec fuzz target runs for FUZZTIME (default 10s) on
#                top of its committed seed corpus, so decoder regressions
#                that only arbitrary bytes would catch still surface pre-merge
#   scenario matrix  the committed specs/ corpus runs through the scenario
#                engine (cmd/synergy-scenario) in both the simulator and the
#                live stack. Locally a short prefix — which ends with the
#                chaos soak, specs/030 — plus the open-loop Poisson load of
#                specs/120 live and the other crash specs (050, 080, 110) in
#                the simulator keeps the gate fast; SCENARIO_FULL=1 (set in
#                CI) runs every spec in both modes. Every stage that runs the
#                protocol from a shell is this one program on a committed
#                spec; what a spec must assert for that to be enough is
#                pinned by TestCorpusKeepsGateExpectations. Failed scenarios
#                leave per-scenario report, metrics snapshot and trace under
#                scenario-artifacts/ for CI to attach
#   crash wall   synergy-crashwall simulates a crash after every IO operation
#                of the durable commit/compact/truncate path and recovers
#                every disk state the crash could leave, asserting no
#                fsync-acked round is ever lost (bounded prefix locally,
#                every operation under SCENARIO_FULL=1); violations land in
#                crashwall-artifacts/ for CI to attach
#   bench smoke  every benchmark runs for one iteration, so a refactor that
#                breaks a benchmark (or reintroduces hot-path allocations
#                loud enough to fail an assertion) is caught before merge
#   alloc gate   the event queue's, the node loop's, the live gossip
#                datagram's, duplicate-push handling's, the unacknowledged
#                log's and gossip dissemination's benchmarks run 200
#                iterations and fail on allocs/op above their committed
#                limits: counts repeat exactly, so this is the one performance
#                number the gate can hold without noise. The 10-node cluster
#                runs 200 000 messages and fails on B/op above its ceiling;
#                the 100-node simulated cluster runs three five-second
#                simulations and the quick single-worker Figure 7 campaign
#                three regenerations, each failing on allocs/op or B/op
#                above its ceilings
#   bench naming bench.sh's snapshot-name logic is asserted hermetically:
#                same-day runs must suffix, never overwrite
#
# Usage: scripts/check.sh  (from anywhere inside the repository)
set -euo pipefail

cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> go -C benchmark vet ./... (the nested module must still compile)"
go -C benchmark vet ./...

# The lint budget guards the shared-type-check + parallel-check design: the
# dataflow analyzers (detflow/lockorder/atomicmix) solve whole-program
# fixpoints, and the budget is 2x the pre-dataflow wall time, so an analyzer
# that re-type-checks or serializes the check phase fails loudly here rather
# than slowly taxing every PR. Override with LINT_BUDGET_SECONDS for slow
# machines.
lint_budget="${LINT_BUDGET_SECONDS:-4}"
echo "==> synergy-lint ./... (budget ${lint_budget}s)"
go build -o "$tmp/synergy-lint" ./cmd/synergy-lint
lint_start=$SECONDS
"$tmp/synergy-lint" ./...
lint_elapsed=$(( SECONDS - lint_start ))
if (( lint_elapsed > lint_budget )); then
    echo "synergy-lint took ${lint_elapsed}s, over the ${lint_budget}s budget (2x the pre-dataflow baseline)" >&2
    exit 1
fi

echo "==> go test -race ./..."
go test -race ./...

fuzztime="${FUZZTIME:-10s}"
echo "==> fuzz smoke ($fuzztime per target)"
fuzz_targets=(
    "./internal/msg FuzzDecode"
    "./internal/msg FuzzDecodeSlice"
    "./internal/msg FuzzRoundTrip"
    "./internal/checkpoint FuzzDecode"
    "./internal/checkpoint FuzzRoundTrip"
    "./internal/storage FuzzStableLog"
    "./internal/gossip FuzzPacket"
    "./internal/cluster FuzzPassedAT"
    "./internal/cluster FuzzResync"
    "./internal/scenario FuzzScenarioSpec"
)
for entry in "${fuzz_targets[@]}"; do
    pkg="${entry% *}" target="${entry#* }"
    echo "    $pkg $target"
    go test "$pkg" -run '^$' -fuzz "^${target}\$" -fuzztime "$fuzztime" > /dev/null
done

# The scenario matrix runs the committed corpus through both execution
# paths. Live runs cost wall-clock seconds apiece, so the local gate runs a
# short prefix and CI (SCENARIO_FULL=1) runs everything; either way a failed
# scenario drops its report, metrics snapshot and trace under
# scenario-artifacts/. The prefix stops short of the load spec, so the local
# gate adds it: its msgs/sec floor is deliberately far under the transport's
# measured capacity, so only a real regression (or a stall) trips it.
if [[ -n "${SCENARIO_FULL:-}" ]]; then
    echo "==> scenario matrix (full corpus, sim + live)"
    go run ./cmd/synergy-scenario -dir specs -workers 4 -artifacts scenario-artifacts
else
    echo "==> scenario matrix smoke (corpus prefix; SCENARIO_FULL=1 runs all)"
    go run ./cmd/synergy-scenario -dir specs -prefix 3 -workers 4 -artifacts scenario-artifacts
    go run ./cmd/synergy-scenario -spec specs/120-poisson-load.json -mode live -artifacts scenario-artifacts
    # The other crash specs, simulated: each crash is a reboot from the
    # rounds the host kept, the path live RestartNode takes.
    mkdir "$tmp/crash-specs"
    cp specs/050-*.json specs/080-*.json specs/110-*.json "$tmp/crash-specs/"
    go run ./cmd/synergy-scenario -dir "$tmp/crash-specs" -mode sim -workers 3 -artifacts scenario-artifacts
fi

# The crash wall explores every IO-op crash point of the durable commit path
# and recovers every post-crash disk state the strict model allows. Locally a
# bounded prefix keeps the gate instant; CI (SCENARIO_FULL=1) explores every
# operation. A red wall leaves crashwall-artifacts/crashwall-violations.json
# for CI to attach.
if [[ -n "${SCENARIO_FULL:-}" ]]; then
    echo "==> crash wall (every durable-path crash point)"
    go run ./cmd/synergy-crashwall -artifacts crashwall-artifacts
else
    echo "==> crash wall smoke (first 25 IO ops; SCENARIO_FULL=1 explores all)"
    go run ./cmd/synergy-crashwall -max-ops 25 -artifacts crashwall-artifacts
fi

echo "==> bench smoke (1 iteration per benchmark)"
go test -run '^$' -bench . -benchtime 1x ./... > /dev/null

# Allocation counts, unlike timings, repeat exactly on any machine: the event
# queue and the node loop's push paths allocate nothing in steady state, nor
# does a member handed the frame of a push it has already seen, nor a gossip
# packet's trip through the live codec and a node loop once its pooled value
# exists; and a seeded gossip dissemination allocates the same objects every
# run, but for the few stages a collection takes from gossip's pool (the tree
# measures 2 / 5–6 / 24–27 for the three group sizes today, members staging
# into recycled buffers over a transport that copies what it keeps — down
# from 33 / 224 / 970 with a fresh digest, delta and push slice per packet,
# and 37 / 243 / 1262 before newest-once delivery; the limits are the
# highest reading plus a tenth, rounded up). The unacknowledged log's send/ack/mark cycle allocates
# nothing either. A per-event allocation creeping back into the substrate
# fails here, not three PRs later in a profile. Bytes per delivered message
# of the 10-node cluster are averaged over 200 000 messages and vary a
# little; the tree reads 173–198 B/op and its ceiling is 400 (a volatile
# checkpoint that copied the unacknowledged set again would read ≈ 1 600).
# One run of the 100-node simulated cluster (sim-paper's cluster phase, five
# virtual seconds) allocates within a few dozen objects of the same count
# each time: the tree reads 38 337–38 343 allocs/op and 18.10 MB/op, and both
# limits are that plus a tenth (gossip staging into recycled buffers, the
# simulator copying a packet into its own free lists, a passed-AT payload
# read once into raises, stable writes encoding the node's vectors in place
# with no record, counter maps or copied unacknowledged set, sort-free
# counter encoding, recycled simulator datagrams, tb trace notes formatted
# only when recorded, timers named by a value and tb's timer callbacks bound
# once; with an allocation per gossip packet and a scratch vector per
# delivered validation it read 269 099 allocs and 62.0 MB, with a record per
# stable write 369 007 allocs and 86.95 MB,
# before sized maps and one copy per dirty round 1 040 745 allocs and
# 150.9 MB). The quick single-worker Figure 7 campaign is the three-process
# path under the paper's headline figure: it reads 5 529 allocs/op and
# 1.70 MB/op, and its limits are that plus a tenth (the shadow's suppressed
# logs compacted in place with each checkpoint copying its few pending
# entries into a buffer it keeps, stable writes encoding the process's
# contents in place, counter arrays, a volatile checkpoint held by value and
# built only when read, recycled interconnect flights, a kept deferred-ack
# buffer, timers named by a value with callbacks bound once; with shadow
# checkpoints holding views of a log that a reclaim could only advance, so
# nearly every append after one grew a new array, it read 12 932 allocs and
# 3.62 MB, with a record per stable write 37 399 allocs and 6.34 MB, with
# the counter maps, a volatile checkpoint copied once per establishment and
# a closure per timer 129 013 allocs and 12.98 MB, before that 289 248
# allocs and 32.0 MB).
echo "==> alloc gate (allocs/op of the event queue, node loop, live datagram, unacked log, gossip, the 100-node sim and Figure 7; B/op of the 10- and 100-node clusters and Figure 7)"
# The gated set and each one's -benchtime are scripts/gated.list, which
# `scripts/bench.sh --gated` records from too.
grep -v -e '^#' -e '^[[:space:]]*$' scripts/gated.list | while read -r pkg bench benchtime; do
    go test -run '^$' -bench "$bench" -benchmem -benchtime "$benchtime" "$pkg"
done | awk '
BEGIN {
    limit["BenchmarkPushPop"] = 0; limit["BenchmarkPushCancel"] = 0
    limit["BenchmarkLiveInterconnect/deliver"] = 0; limit["BenchmarkLiveInterconnect/post"] = 0
    limit["BenchmarkDuplicatePushFrame"] = 0; limit["BenchmarkLiveDatagram"] = 0
    limit["BenchmarkUnackedWindow"] = 0
    limit["BenchmarkGossipDissemination/nodes=16"] = 3
    limit["BenchmarkGossipDissemination/nodes=64"] = 7
    limit["BenchmarkGossipDissemination/nodes=256"] = 30
    limit["BenchmarkCluster100Sim"] = 42200
    limit["BenchmarkFigure7Sequential"] = 6100
    bytes["BenchmarkCluster10FlatOut"] = 400
    bytes["BenchmarkCluster100Sim"] = 19900000
    bytes["BenchmarkFigure7Sequential"] = 1900000
}
/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    for (i = 3; i <= NF; i++) {
        if ($(i) == "allocs/op" && name in limit) {
            seen++
            printf "    %-42s %9d allocs/op (limit %d)\n", name, $(i-1), limit[name]
            if ($(i-1) > limit[name]) bad = 1
        }
        if ($(i) == "B/op" && name in bytes) {
            seen++
            printf "    %-42s %9d B/op (limit %d)\n", name, $(i-1), bytes[name]
            if ($(i-1) > bytes[name]) bad = 1
        }
    }
}
END {
    want = length(limit) + length(bytes)
    if (seen != want) { print "alloc gate: " seen " of " want " gated benchmarks ran" > "/dev/stderr"; exit 1 }
    if (bad) { print "alloc gate: allocs/op or B/op over the limit" > "/dev/stderr"; exit 1 }
}'

echo "==> bench snapshot naming (same-day runs suffix, never overwrite)"
first="$(BENCH_DIR="$tmp" BENCH_DATE=2026-01-01 scripts/bench.sh --print-out)"
if [[ "$first" != "$tmp/BENCH_2026-01-01.json" ]]; then
    echo "bench.sh --print-out named $first, want $tmp/BENCH_2026-01-01.json" >&2
    exit 1
fi
touch "$tmp/BENCH_2026-01-01.json" "$tmp/BENCH_2026-01-01-1.json"
second="$(BENCH_DIR="$tmp" BENCH_DATE=2026-01-01 scripts/bench.sh --print-out)"
if [[ "$second" != "$tmp/BENCH_2026-01-01-2.json" ]]; then
    echo "bench.sh same-day run named $second, want $tmp/BENCH_2026-01-01-2.json" >&2
    exit 1
fi

echo "==> all checks passed"
