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
#                live stack. Locally a short prefix keeps the gate fast;
#                SCENARIO_FULL=1 (set in CI) runs every spec in both modes.
#                Failed scenarios leave per-scenario trace + report JSON
#                under scenario-artifacts/ for CI to attach
#   crash wall   synergy-crashwall simulates a crash after every IO operation
#                of the durable commit/compact/truncate path and recovers
#                every disk state the crash could leave, asserting no
#                fsync-acked round is ever lost (bounded prefix locally,
#                every operation under SCENARIO_FULL=1); violations land in
#                crashwall-artifacts/ for CI to attach
#   chaos soak   synergy-chaos replays specs/030-chaos-soak.json (lossy/
#                duplicating/corrupting links, a partition, a P2
#                crash-restart from durable storage) and must end healthy
#                with a violation-free recovery line; on failure the
#                protocol trace lands in chaos-trace.txt for CI to attach
#                as an artifact. The run's final metrics snapshot always
#                lands in chaos-metrics.json (uploaded by CI), and the
#                spec's fault_counters_match expectation asserts the obs
#                counters agree with the injector's
#   cluster smoke  synergy-scenario replays specs/140-cluster-10-gossip.json in
#                the deterministic simulator: a 10-node ring (7 components, 3
#                guarded with shadows) under link chaos must end with a clean
#                membership-wide recovery line and gossip fan-in bounded by
#                fanout·rounds. The 10-node live run and the 100-node
#                simulations (chaos soak 160, mid-run software fault 170)
#                are the SCENARIO_FULL=1 scenario matrix above
#   metrics smoke  synergy-live is started with -metrics-addr 127.0.0.1:0
#                and its /metrics endpoint scraped once: the exposition
#                must be non-empty and well-typed
#   load smoke   synergy-load replays specs/120-poisson-load.json (open-loop
#                Poisson over zero-delay TCP): it must clear the spec's
#                msgs/sec floor with every probe delivered (obs counter ==
#                driver count); its JSON result snapshot lands in
#                load-result.json for CI to upload
#   bench smoke  every benchmark runs for one iteration, so a refactor that
#                breaks a benchmark (or reintroduces hot-path allocations
#                loud enough to fail an assertion) is caught before merge
#   alloc gate   the event queue's, the node loop's, the live gossip
#                datagram's, duplicate-push handling's and gossip
#                dissemination's benchmarks run 200 iterations and fail on
#                allocs/op above their committed limits: counts repeat
#                exactly, so this is the one performance number the gate can
#                hold without noise
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
# scenario drops its trace and report under scenario-artifacts/.
if [[ -n "${SCENARIO_FULL:-}" ]]; then
    echo "==> scenario matrix (full corpus, sim + live)"
    go run ./cmd/synergy-scenario -dir specs -workers 4 -artifacts scenario-artifacts
else
    echo "==> scenario matrix smoke (corpus prefix; SCENARIO_FULL=1 runs all)"
    go run ./cmd/synergy-scenario -dir specs -prefix 3 -workers 4 -artifacts scenario-artifacts
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

echo "==> chaos soak smoke (replays specs/030-chaos-soak.json live)"
go run ./cmd/synergy-chaos -spec specs/030-chaos-soak.json -metrics-out chaos-metrics.json > /dev/null

# The cluster smoke soaks the N-node layer (gmdcd topology × time-based
# checkpointing × gossip dissemination, DESIGN.md §16): a 10-node ring under
# lossy/duplicating/jittery links must end with a clean membership-wide
# recovery line and per-node gossip fan-in within the fanout·rounds bound.
# The deterministic simulator keeps the stage instant and outside the local
# matrix prefix; under SCENARIO_FULL=1 the scenario matrix above already runs
# every committed cluster spec (140 in both worlds, 150/160/170 in the
# simulator), so CI adds nothing here.
echo "==> cluster smoke (replays specs/140-cluster-10-gossip.json in the simulator)"
go run ./cmd/synergy-scenario -spec specs/140-cluster-10-gossip.json -mode sim > /dev/null

echo "==> metrics smoke (synergy-live serves /metrics; one scrape must be non-empty)"
go build -o "$tmp/synergy-live" ./cmd/synergy-live
"$tmp/synergy-live" -duration 1500ms -metrics-addr 127.0.0.1:0 > "$tmp/live.out" &
live_pid=$!
addr=""
for _ in $(seq 1 50); do
    addr="$(sed -n 's/^metrics listening on //p' "$tmp/live.out")"
    [[ -n "$addr" ]] && break
    sleep 0.1
done
if [[ -z "$addr" ]]; then
    kill "$live_pid" 2>/dev/null || true
    echo "synergy-live never reported its metrics address:" >&2
    cat "$tmp/live.out" >&2
    exit 1
fi
go run ./scripts/internal/scrape "http://$addr/metrics" "# TYPE synergy_live_msgs_sent_total counter"
wait "$live_pid"

echo "==> load smoke (synergy-load replays specs/120-poisson-load.json)"
# The smoke's whole configuration — schedule, rate, duration, the msgs/sec
# floor and the all-delivered assertion — lives in the committed spec, so
# this stage, the scenario matrix and any local repro run the same load.
# The floor is deliberately far under the transport's measured capacity so
# only a real regression (or a stall) trips it. The JSON result snapshot is
# uploaded by CI alongside the bench snapshots.
go run ./cmd/synergy-load -spec specs/120-poisson-load.json -out load-result.json > /dev/null

echo "==> bench smoke (1 iteration per benchmark)"
go test -run '^$' -bench . -benchtime 1x ./... > /dev/null

# Allocation counts, unlike timings, repeat exactly on any machine: the event
# queue and the node loop's push paths allocate nothing in steady state, nor
# does a member handed the frame of a push it has already seen, nor a gossip
# packet's trip through the live codec and a node loop once its pooled value
# exists; and a seeded gossip dissemination allocates the same objects every
# run (the tree measures 37 / 243 / 1262 for the three group sizes today; the
# limits are that plus a tenth). A per-event allocation creeping back into
# the substrate fails here, not three PRs later in a profile.
echo "==> alloc gate (allocs/op of the event queue, node loop, live datagram and gossip)"
{
    go test -run '^$' -bench '^Benchmark(PushPop|PushCancel)$' -benchmem -benchtime 200x ./internal/eventq
    go test -run '^$' -bench '^BenchmarkLiveInterconnect$/^(deliver|post)$' -benchmem -benchtime 200x ./internal/seam/wall
    go test -run '^$' -bench '^Benchmark(GossipDissemination|DuplicatePushFrame)$' -benchmem -benchtime 200x ./internal/gossip
    go test -run '^$' -bench '^BenchmarkLiveDatagram$' -benchmem -benchtime 200x ./internal/cluster
} | awk '
BEGIN {
    limit["BenchmarkPushPop"] = 0; limit["BenchmarkPushCancel"] = 0
    limit["BenchmarkLiveInterconnect/deliver"] = 0; limit["BenchmarkLiveInterconnect/post"] = 0
    limit["BenchmarkDuplicatePushFrame"] = 0; limit["BenchmarkLiveDatagram"] = 0
    limit["BenchmarkGossipDissemination/nodes=16"] = 40
    limit["BenchmarkGossipDissemination/nodes=64"] = 267
    limit["BenchmarkGossipDissemination/nodes=256"] = 1388
}
/^Benchmark/ && $(NF) == "allocs/op" {
    name = $1; sub(/-[0-9]+$/, "", name)
    if (!(name in limit)) next
    seen++
    printf "    %-42s %5d allocs/op (limit %d)\n", name, $(NF-1), limit[name]
    if ($(NF-1) > limit[name]) bad = 1
}
END {
    if (seen != length(limit)) { print "alloc gate: " seen " of " length(limit) " gated benchmarks ran" > "/dev/stderr"; exit 1 }
    if (bad) { print "alloc gate: allocs/op over the limit" > "/dev/stderr"; exit 1 }
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
