// Package benchmark is the repository's benchmark harness: six workloads
// over the live three-process stack, the 10-node cluster and the simulator,
// five end-to-end metrics every workload reports, and a per-layer budget
// measured from outside the program (spans around the harness's calls into
// each layer, the program's own trace and obs registry, and an isolated
// replay of each layer's hot functions).
//
// The files of this package that are not tests never read the clock: they
// hold the tables, the statistics, the trace pairing and the span tree, so
// synergy-lint's determinism rules (wallclock, detflow) have nothing to say
// about them. Everything that measures time lives in the _test.go files,
// which TestMain turns into the benchmark program when -workload is given
// (see run.sh and README.md).
package benchmark

// Workload names one set of inputs the benchmark runs.
type Workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Metric names one reported number. Bound is the share of the parent's
// median by which an end-to-end metric may worsen; per-layer metrics have
// none.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// Workload names, in run order.
const (
	LiveSteady   = "live3-steady"
	LiveSaturate = "live3-saturate"
	WireOnly     = "wire-only"
	LiveRecover  = "live3-recover"
	Cluster10    = "cluster10-live"
	SimPaper     = "sim-paper"
)

// Workloads is the benchmark's workload table; BENCHMARK.json carries the
// same rows and a test keeps the two equal.
var Workloads = []Workload{
	{LiveSteady, "full stack at moderate open-loop load, no layer saturated: latency floor is live batching, tail is tb blocking plus storage fsync"},
	{LiveSaturate, "full stack with closed-loop generators flat out: the protocol path's cost per message (mdcd, msg codec, live locks) at the highest rate the generators' timers reach; storage is idle by comparison"},
	{WireOnly, "no-fault-tolerance baseline on the same wire (no Start): paced probes then a flood, so batching cannot buy one with the other"},
	{LiveRecover, "kill/restart and in-place hardware faults every 200 ms: the only workload that reads storage and runs recovery orchestration"},
	{Cluster10, "10-node cluster+gmdcd+gossip assembly flat out: guards the N-node runtime that a later merge with live must not slow"},
	{SimPaper, "full-size paper registry and a 100-node simulated cluster: the deterministic use of the code the live paths run under locks"},
}

// End-to-end metric names. Every workload reports every one of them; what
// "op" and "msg" mean on each workload is the table in README.md.
const (
	SetupS      = "setup_s"
	OpMs        = "op_ms"
	MsgsPerS    = "msgs_per_s"
	CPUUsPerMsg = "cpu_us_per_msg"
	MemPeakMB   = "mem_peak_mb"
)

// EndToEnd lists the end-to-end metrics with their regression bounds: all at
// the contract's ceiling, because on this sandbox the steadiest of them still
// spreads by a third of that over ten runs (README.md, "Repeatability").
var EndToEnd = []Metric{
	{SetupS, "s", "lower", 0.25},
	{OpMs, "ms", "lower", 0.25},
	{MsgsPerS, "1/s", "higher", 0.25},
	{CPUUsPerMsg, "us", "lower", 0.25},
	{MemPeakMB, "MB", "lower", 0.25},
}

// TraceOverheadPct is the per-layer metric comparing the traced half of a
// -trace run with its untraced half.
const TraceOverheadPct = "bench.trace_overhead_pct"

// PerLayer lists the per-layer metrics a traced run reports. A metric whose
// layer the workload leaves idle reads 0.
var PerLayer = perLayer()

func perLayer() []Metric {
	lo := func(name, unit string) Metric { return Metric{Name: name, Unit: unit, Better: "lower"} }
	hi := func(name, unit string) Metric { return Metric{Name: name, Unit: unit, Better: "higher"} }
	out := []Metric{
		// live: transport, middleware and recovery orchestration.
		lo("live.app_delivery_p50_ms", "ms"), lo("live.app_delivery_p90_ms", "ms"), lo("live.app_delivery_p99_ms", "ms"),
		lo("live.probe_mean_ms", "ms"), lo("live.probe_p50_ms", "ms"), lo("live.probe_p95_ms", "ms"),
		hi("live.probe_flood_per_s", "1/s"), hi("live.proto_msgs_per_s", "1/s"),
		lo("live.hw_recover_p50_ms", "ms"), lo("live.restart_p50_ms", "ms"),
		hi("live.batch_frames_mean", "count"), hi("live.batch_bytes_mean", "B"),
		lo("live.send_blocked", "count"), lo("live.sendprobe_ns", "ns"),
		lo("live.transport_retries", "count"), lo("live.crc_drops", "count"),
		lo("live.new_ms", "ms"), lo("live.stop_ms", "ms"),
		lo("live.recovery_pass_ms", "ms"), lo("live.resends_per_recovery", "count"),
		lo("live.kill_us", "us"), lo("live.service_gap_p50_ms", "ms"),
		lo("live.gen_late_p99_ms", "ms"),
		// mdcd.
		lo("mdcd.checkpoints_per_kmsg", "count"), hi("mdcd.ats_per_s", "1/s"),
		lo("mdcd.ndc_deferred", "count"), lo("mdcd.duplicates", "count"),
		// tb.
		lo("tb.block_actual_p50_ms", "ms"), lo("tb.block_planned_ms", "ms"),
		lo("tb.block_overrun_ms", "ms"), lo("tb.stable_write_p50_ms", "ms"),
		lo("tb.replaces_per_round", "count"),
		lo("tb.skipped_busy", "count"), lo("tb.commit_retries", "count"),
		lo("tb.line_violations", "count"),
		// storage.
		lo("storage.commit_mem_us", "us"), lo("storage.commit_file_us", "us"),
		lo("storage.commit_file_x3_us", "us"), lo("storage.fsync_us", "us"),
		lo("storage.bytes_per_round", "B"), lo("storage.compactions_per_100_rounds", "count"),
		lo("storage.open_recover_us", "us"), lo("storage.truncate_us", "us"),
		// checkpoint and msg codecs.
		lo("checkpoint.encode_us", "us"), lo("checkpoint.decode_us", "us"),
		lo("checkpoint.clone_us", "us"), lo("checkpoint.bytes", "B"),
		lo("msg.encode_ns", "ns"), lo("msg.decode_ns", "ns"), lo("msg.encode_allocs", "count"),
		// cluster (+gmdcd) and gossip.
		hi("cluster.msgs_per_s", "1/s"), lo("cluster.invariants_p50_ms", "ms"), lo("cluster.in_flight_mean", "count"), lo("cluster.delivery_mean_ms", "ms"),
		lo("cluster.cluster100_sim_s", "s"), hi("cluster.sim_steps_per_s", "1/s"),
		lo("cluster.held_frac", "ratio"), lo("cluster.dups_discarded", "count"),
		hi("cluster.stable_commits_per_s", "1/s"),
		lo("gossip.disseminate_us_n64", "us"), lo("gossip.encode_ns", "ns"),
		lo("gossip.decode_ns", "ns"), lo("gossip.fanin_max", "ratio"),
		lo("gossip.copies_per_update", "count"),
		// simulator cores.
		lo("coord.sim_minute_ms", "ms"), hi("coord.steps_per_s", "1/s"),
		lo("eventq.pushpop_ns", "ns"), lo("sim.event_ns", "ns"),
		// experiment registry.
		lo("experiment.registry_regen_s", "s"), hi("campaign.parallel_speedup", "ratio"),
	}
	for _, id := range ExperimentIDs {
		out = append(out, lo("experiment."+id+"_s", "s"))
	}
	return append(out,
		lo("obs.hist_observe_ns", "ns"), lo("trace.record_ns", "ns"),
		lo("go.mallocs_per_msg", "count"), lo("go.gc_pause_ms", "ms"), lo("go.gc_cycles", "count"),
		lo("bench.host_page_ms", "ms"),
		lo("bench.raw_op_ms", "ms"), hi("bench.raw_msgs_per_s", "1/s"), lo("bench.raw_cpu_us_per_msg", "us"),
		lo(TraceOverheadPct, "%"),
	)
}

// ExperimentIDs is the registry the sim-paper workload regenerates; a test
// keeps it equal to experiment.IDs().
var ExperimentIDs = []string{
	"ablation-blocking", "ablation-delta", "ablation-ndc", "ablation-repair",
	"costs", "fig1", "fig2", "fig3", "fig4", "fig6", "fig7", "fig7-analytic", "table1",
}

// Manifest is the shape of BENCHMARK.json.
type Manifest struct {
	Command    []string   `json:"command"`
	Paths      []string   `json:"paths"`
	RunSeconds int        `json:"run_seconds"`
	Workloads  []Workload `json:"workloads"`
	EndToEnd   []Metric   `json:"end_to_end"`
	PerLayer   []Metric   `json:"per_layer"`
}
