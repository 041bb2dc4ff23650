#!/usr/bin/env bash
# cpu_buckets.sh <cpu-profile> [msgs] — where a profile's samples go, by
# EXPERIMENTS.md's rule ("cluster10-live: where the CPU goes"): every sample
# lands in exactly one bucket. It reads the cluster's profiles (cluster10-live's
# BenchmarkCluster10FlatOut, sim-paper's 100-node BenchmarkCluster100Sim) and
# the three-process assembly's (the paper's registry over coord.System).
#
#   - A stack with a collector frame anywhere in it (a mark worker, an
#     allocation assist, the sweeper or the scavenger) is GC.
#   - Otherwise the stack is walked leaf first and the first frame that belongs
#     to a bucket wins: a stack regrown inside gossip.Handle is stack growth, a
#     mallocgc or a memmove under it (frames of no bucket) is gossip.
#   - A stack none of whose frames belongs anywhere is "other".
#
# Frame lists, by function-name prefix:
#   goroutine creation + stack growth  runtime.newproc*, newstack, copystack, morestack*, goexit0, malg
#   runtime timers                     time.AfterFunc/NewTimer/(*Timer), time.sendTime/goFunc, runtime.(*timer[s]), timer glue
#   scheduler                          runtime.schedule, findRunnable, mcall/park_m/gopark/goready/ready, wakep/startm/stopm,
#                                      runq*, futex*/note*, chansend/chanrecv/selectgo, sema*, lock2/unlock2, os yield/sleep
#   interconnect bookkeeping           internal/seam, internal/seam/wall, internal/eventq, internal/sim, container/heap;
#                                      in internal/coord: the Interconnect, its flight records and its delay draw
#   gossip                             internal/gossip, and in internal/cluster: gossipTransport, both runtimes'
#                                      datagrams and the simulator's buffer free lists (takeBuf), onGossipDeliver
#                                      and newCluster's two per-node closures (the Deliver hook, onPacket); reading
#                                      and applying a passed-AT payload is node protocol
#   trace                              internal/trace, and coord's Record forwarders (the simulator's; the node's in
#                                      older trees, for a parent column)
#   node protocol                      the rest of internal/cluster and internal/coord; internal/mdcd, tb, chaos, msg,
#                                      checkpoint, app, vtime, obs, gmdcd, internal/storage
#
# Prints one row per bucket: share of samples, seconds, and — given msgs, the
# messages delivered while the profile ran — µs per message. Produce a profile
# with
#
#   go test -run '^$' -bench Cluster10FlatOut -benchtime 1000000x -cpuprofile cpu.out ./internal/cluster
#
# (msgs is then 1000000), or with -bench Cluster100Sim -benchtime 5x (msgs is
# then six times the delivered/op it reports: the N = 1 trial run is profiled
# too). A registry profile has no message count; leave msgs out. Go profiles
# carry their own symbols, so the test binary is not needed.
set -euo pipefail

if [[ $# -lt 1 || $# -gt 2 ]]; then
    echo "usage: $0 <cpu-profile> [msgs]" >&2
    exit 2
fi
profile="$1"
msgs="${2:-0}"

go tool pprof -traces "$profile" 2>/dev/null | awk -v msgs="$msgs" '
function seconds(v) {
    if (v ~ /ms$/) { sub(/ms$/, "", v); return v / 1000 }
    if (v ~ /us$/) { sub(/us$/, "", v); return v / 1e6 }
    if (v ~ /s$/)  { sub(/s$/, "", v);  return v + 0 }
    return v + 0
}
function is_gc(f) {
    return f ~ /^runtime\.(gcBgMarkWorker|gcAssistAlloc|gcDrain|gcMark|gcStart|gcSweep|gcResetMarkState|bgsweep|bgscavenge|sweepone|markroot|scanobject|scanblock|scanstack|greyobject|gcFlushBgCredit|gcParkAssist|gcWriteBarrier|wbBufFlush|gcControllerState|\(\*gcWork\)|\(\*gcControllerState\)|\(\*sweepLocked\)|\(\*mspan\)\.sweep|deductSweepCredit|\(\*scavengerState\))/
}
function bucket_of(f) {
    if (f ~ /^runtime\.(newproc|newstack|copystack|morestack|goexit0|malg|gfget|gfput)/) return "goroutines"
    if (f ~ /^time\.(AfterFunc|NewTimer|\(\*Timer\)|sendTime|goFunc|newTimer|resetTimer|stopTimer)/ || f ~ /^runtime\.(\(\*timers?\)|resetForSleep|timeSleep)/) return "timers"
    if (f ~ /^runtime\.(schedule|findRunnable|mcall|park_m|gopark|goparkunlock|goready|ready|wakep|startm|stopm|handoffp|execute|gosched|goschedImpl|gopreempt_m|preemptPark|runq|globrunq|stealWork|checkTimers|resetspinning|injectglist|futex|notesleep|notewakeup|notetsleep|noteclear|chansend|chanrecv|selectgo|selectnbsend|selectnbrecv|sellock|selunlock|send|recv|sema|semacquire|semrelease|readyWithTime|lock2|unlock2|lockWithRank|unlockWithRank|osyield|usleep|nanosleep|mPark|acquirep|releasep|pidleget|pidleput|mstart|netpoll|\(\*waitq\)|\(\*sudog\)|acquireSudog|releaseSudog)/ || f ~ /^sync\.runtime_(Semacquire|Semrelease|SemacquireMutex)/ || f ~ /^internal\/runtime\/syscall\.|^runtime\/internal\/syscall\./) return "scheduler"
    if (f ~ /^github\.com\/synergy-ft\/synergy\/internal\/(seam|eventq|sim)[.\/]/ || f ~ /^container\/heap\./) return "interconnect"
    if (f ~ /^github\.com\/synergy-ft\/synergy\/internal\/coord\.(\(\*Interconnect\)|\(\*flight\)|NewInterconnect|splitmix)/) return "interconnect"
    if (f ~ /^github\.com\/synergy-ft\/synergy\/internal\/trace\./ || f ~ /^github\.com\/synergy-ft\/synergy\/internal\/coord\.\(\*(node|simRuntime)\)\.Record$/) return "trace"
    if (f ~ /^github\.com\/synergy-ft\/synergy\/internal\/gossip\./) return "gossip"
    if (f ~ /^github\.com\/synergy-ft\/synergy\/internal\/cluster\.(gossipTransport|\(\*liveRuntime\)\.datagram|\(\*simRuntime\)\.datagram|\(\*(sim)?[dD]atagram\)|takeBuf\[|\(\*Cluster\)\.onGossipDeliver|newCluster\.func)/) return "gossip"
    if (f ~ /^github\.com\/synergy-ft\/synergy\/internal\/(cluster|coord|mdcd|tb|chaos|msg|checkpoint|app|vtime|obs|gmdcd|storage)[.\/]/) return "protocol"
    return ""
}
function close_sample(   i, b) {
    if (!have) return
    b = ""
    for (i = 0; i < nframes; i++) if (is_gc(frame[i])) { b = "gc"; break }
    if (b == "") for (i = 0; i < nframes; i++) { b = bucket_of(frame[i]); if (b != "") break }
    if (b == "") b = "other"
    spent[b] += value
    total += value
    have = 0
    nframes = 0
}
/^-+\+-+$/ { close_sample(); in_traces = 1; next }
!in_traces { next }
{
    line = $0
    sub(/ \(inline\)$/, "", line)
    if (!have) {
        # The first line of a sample: its value, then the leaf frame.
        n = split(line, part, " ")
        value = seconds(part[1])
        have = 1
        line = substr(line, index(line, part[1]) + length(part[1]))
    }
    sub(/^[ \t]+/, "", line)
    if (line != "") frame[nframes++] = line
}
END {
    close_sample()
    name["goroutines"]   = "goroutine creation + stack growth"
    name["timers"]       = "runtime timers"
    name["scheduler"]    = "scheduler"
    name["interconnect"] = "interconnect bookkeeping"
    name["gossip"]       = "gossip"
    name["trace"]        = "trace"
    name["protocol"]     = "node protocol"
    name["gc"]           = "GC"
    name["other"]        = "other"
    n = split("goroutines timers scheduler interconnect gossip trace protocol gc other", order, " ")
    if (total == 0) { print "cpu_buckets: no samples in the profile" > "/dev/stderr"; exit 1 }
    printf "%-36s %8s %9s", "bucket", "share", "seconds"
    if (msgs > 0) printf " %9s", "us/msg"
    printf "\n"
    for (i = 1; i <= n; i++) {
        b = order[i]
        printf "%-36s %7.1f%% %9.2f", name[b], 100 * spent[b] / total, spent[b]
        if (msgs > 0) printf " %9.2f", spent[b] * 1e6 / msgs
        printf "\n"
    }
    printf "%-36s %7.1f%% %9.2f", "total", 100.0, total
    if (msgs > 0) printf " %9.2f", total * 1e6 / msgs
    printf "\n"
}'
