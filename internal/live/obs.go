package live

import "github.com/synergy-ft/synergy/internal/obs"

// liveObs bundles the metrics only the middleware counts (the per-process
// families are coord's, labeled proc="...", and the families of counts the
// carriers and the assembly keep are read from them: registerReads). The zero
// value (all-nil metrics) is the disabled state: every update is a
// nil-receiver no-op, so a middleware built without Config.Obs behaves
// identically.
type liveObs struct {
	// connects counts successful transport dials; retries counts backoff
	// rounds a writer spent on dial failures, write errors and partition
	// stalls.
	connects, retries *obs.Counter
	// recoveryLatency is the wall-clock duration of system-wide recovery
	// passes (software takeover and hardware rollback), in seconds.
	recoveryLatency *obs.Histogram
	// kills and restarts count KillNode/RestartNode completions.
	kills, restarts *obs.Counter
	// tornTails counts damaged stable-log tails discarded at node attach.
	tornTails *obs.Counter
	// failstops counts nodes crash-stopped because a stable commit could
	// not be made durable (retry exhaustion).
	failstops *obs.Counter
	// batchFrames and batchBytes size the TCP writer's coalesced batches:
	// sub-frames per batch (including corrupted/duplicate chaos copies)
	// and wire bytes per batch.
	batchFrames, batchBytes *obs.Histogram
	// deliveryLatency measures transport enqueue→delivery per message, in
	// seconds (sender and receiver share the process clock).
	deliveryLatency *obs.Histogram
	// sendBlocked counts sends that found their writer queue full and
	// blocked (backpressure engaged; nothing was dropped).
	sendBlocked *obs.Counter
}

// newLiveObs registers the middleware metrics on r. A nil registry yields
// the zero (disabled) bundle.
func newLiveObs(r *obs.Registry) liveObs {
	return liveObs{
		connects: r.Counter("synergy_live_transport_connects_total",
			"Successful transport dials (including reconnects)."),
		retries: r.Counter("synergy_live_transport_retries_total",
			"Writer backoff rounds (dial failures, write errors, partition stalls)."),
		recoveryLatency: r.Histogram("synergy_live_recovery_seconds",
			"Wall-clock duration of system-wide recovery passes.",
			obs.ExpBuckets(0.0005, 2, 14)),
		kills: r.Counter("synergy_live_node_kills_total",
			"Nodes killed (KillNode completions)."),
		restarts: r.Counter("synergy_live_node_restarts_total",
			"Nodes rebooted from durable storage (RestartNode completions)."),
		tornTails: r.Counter("synergy_live_torn_tail_recoveries_total",
			"Damaged stable-log tails discarded while attaching a node."),
		failstops: r.Counter("synergy_live_failstops_total",
			"Nodes crash-stopped after durable-commit retry exhaustion."),
		batchFrames: r.Histogram("synergy_live_batch_frames",
			"Sub-frames coalesced per TCP wire batch.",
			obs.ExpBuckets(1, 2, 10)),
		batchBytes: r.Histogram("synergy_live_batch_bytes",
			"Wire bytes per TCP batch (length prefix included).",
			obs.ExpBuckets(64, 4, 8)),
		deliveryLatency: r.Histogram("synergy_live_delivery_latency_seconds",
			"Transport enqueue-to-delivery latency per message.",
			obs.ExpBuckets(2e-5, 2, 18)),
		sendBlocked: r.Counter("synergy_live_send_blocked_total",
			"Sends that found a full writer queue and blocked (backpressure)."),
	}
}

// registerReads registers the families whose counts live where they are
// made: the carrier's traffic and CRC drops, the assembly's recovery
// outcomes, the probes SendProbe numbered and the probes and acks route
// consumed per channel, each read when a snapshot is taken.
func (mw *Middleware) registerReads(r *obs.Registry) {
	r.CounterFunc("synergy_live_msgs_sent_total", "Messages handed to the transport.",
		func() uint64 { sent, _ := mw.net.Stats(); return sent })
	r.CounterFunc("synergy_live_msgs_delivered_total", "Messages delivered to their destination node.",
		func() uint64 { _, delivered := mw.net.Stats(); return delivered })
	r.CounterFunc("synergy_live_crc_dropped_frames_total", "Frames dropped by the receiver's CRC integrity check.",
		mw.CRCDrops)
	r.CounterFunc("synergy_live_hw_recoveries_total", "System-wide hardware recovery passes.",
		func() uint64 { hw, _, _ := mw.sys.Recoveries(); return uint64(hw) })
	r.CounterFunc("synergy_live_sw_recoveries_total", "Software error recoveries (shadow takeovers).",
		func() uint64 { _, sw, _ := mw.sys.Recoveries(); return uint64(sw) })
	r.CounterFunc("synergy_live_resends_total", "Unacknowledged messages re-sent during recovery.",
		func() uint64 { _, _, resends := mw.sys.Recoveries(); return uint64(resends) })
	r.CounterFunc("synergy_live_probes_sent_total", "Load-driver probes injected via SendProbe.",
		func() uint64 { sent, _ := mw.ProbeStats(); return sent })
	r.CounterFunc("synergy_live_probes_delivered_total", "Load-driver probes consumed by the router.",
		func() uint64 { _, delivered := mw.ProbeStats(); return delivered })
	r.CounterFunc("synergy_live_acks_total", "Acknowledgements routed to TB checkpointers.",
		mw.acksRouted)
}
