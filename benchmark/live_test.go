package benchmark

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"github.com/synergy-ft/synergy/internal/app"
	"github.com/synergy-ft/synergy/internal/live"
	"github.com/synergy-ft/synergy/internal/mdcd"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/obs"
	"github.com/synergy-ft/synergy/internal/scenario"
	"github.com/synergy-ft/synergy/internal/storage"
	"github.com/synergy-ft/synergy/internal/tb"
	"github.com/synergy-ft/synergy/internal/trace"
	"github.com/synergy-ft/synergy/internal/vtime"
)

// liveDelta is the TB checkpoint interval Δ of every live workload.
const liveDelta = 50 * time.Millisecond

// drainCut is how old a send must be at the end of a run before a missing
// delivery counts as lost rather than in flight.
const drainCut = 100 * time.Millisecond

// liveParams is what distinguishes the live workloads' assemblies. The
// program sees only these generated inputs, never a workload name.
type liveParams struct {
	internal, external float64 // built-in generator rates per component
	traceCap           int
	protocol           bool // call Start: protocol, checkpoints and generators on
}

// sixPairs is the round-robin order of directed channels probes load.
var sixPairs = [][2]msg.ProcID{
	{msg.P1Act, msg.P2}, {msg.P2, msg.P1Act},
	{msg.P1Sdw, msg.P2}, {msg.P2, msg.P1Sdw},
	{msg.P1Act, msg.P1Sdw}, {msg.P1Sdw, msg.P1Act},
}

// liveSystem is one assembled middleware with what the harness needs to
// read it from outside.
type liveSystem struct {
	mw      *live.Middleware
	reg     *obs.Registry
	dir     string
	created time.Time // just before live.New: the origin of trace times
}

// at converts a wall instant to the middleware's trace time.
func (s *liveSystem) at(t time.Time) vtime.Time { return vtime.Time(t.Sub(s.created)) }

// assembleLive builds one middleware (and starts it when the workload runs
// the protocol), recording the set-up time.
func (r *run) assembleLive(p liveParams) (*liveSystem, error) {
	t0 := time.Now()
	s0 := r.clk.ns()
	dir, err := os.MkdirTemp(r.tmp, "stable-*")
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	cfg := live.DefaultConfig(r.seed)
	cfg.Net = live.TCPTransport
	cfg.StableDir = dir
	cfg.Obs = reg
	cfg.CheckpointInterval = liveDelta
	cfg.MinDelay, cfg.MaxDelay = 0, 0
	cfg.Workload1 = app.Workload{InternalRate: p.internal, ExternalRate: p.external}
	cfg.Workload2 = cfg.Workload1
	cfg.TraceCapacity = p.traceCap
	sys := &liveSystem{reg: reg, dir: dir, created: time.Now()}
	sys.mw, err = live.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("live.New: %w", err)
	}
	s1 := r.clk.ns()
	if p.protocol {
		sys.mw.Start()
	}
	r.setups = append(r.setups, time.Since(t0).Seconds())
	r.newMs = append(r.newMs, float64(s1-s0)/1e6)
	if r.traced {
		root := r.spans.Add("setup", 0, s0, r.clk.ns(), "")
		r.spans.Add("live.New", root, s0, s1, "")
		if p.protocol {
			r.spans.Add("live.Start", root, s1, r.clk.ns(), "")
		}
	}
	return sys, nil
}

// stop stops the middleware, timing the call.
func (r *run) stopLive(s *liveSystem) {
	s0 := r.clk.ns()
	s.mw.Stop()
	s1 := r.clk.ns()
	r.stopMs = append(r.stopMs, float64(s1-s0)/1e6)
	if r.traced {
		r.spans.Add("live.Stop", 0, s0, s1, "")
	}
}

// extraSetups assembles and discards middlewares so setup_s is a median of
// several set-ups, not one.
func (r *run) extraSetups(p liveParams, n int) error {
	for i := 0; i < n; i++ {
		s, err := r.assembleLive(p)
		if err != nil {
			return err
		}
		r.stopLive(s)
	}
	return nil
}

// warmUp waits until the first complete checkpoint round exists (so faults
// and recovery lines have something to restore) and the generators, the
// sockets and the page cache have settled.
func (r *run) warmUp(s *liveSystem) {
	ok := waitFor(3*time.Second, func() bool {
		_, err := s.mw.RecoveryLine()
		return err == nil
	})
	r.checks.Expect(ok, "no complete checkpoint round within 3 s of Start")
	time.Sleep(r.scaled(300 * time.Millisecond))
}

// awaitRounds waits until P2 has committed n more stable rounds, so a
// recovery line sampled afterwards is one the system built since.
func (r *run) awaitRounds(s *liveSystem, n uint64) {
	ndc := func() (v uint64) {
		_ = s.mw.Inspect(msg.P2, func(_ *mdcd.Process, cp *tb.Checkpointer) { v = cp.Ndc() })
		return v
	}
	start := ndc()
	ok := waitFor(3*time.Second, func() bool { return ndc() >= start+n })
	r.checks.Expect(ok, "P2 committed no %d further rounds within 3 s", n)
}

// probeLoad is the outcome of one probe-driving phase.
type probeLoad struct {
	sent   uint64
	lateMs []float64 // scheduled-to-actual send lateness, 1 send in 16
	sendNs []float64 // SendProbe call time, 1 send in 1024, traced runs only
}

// drivePaced sends an open-loop Poisson probe stream at rate for d from the
// calling goroutine, round-robin over the six directed pairs. The next
// arrival is scheduled from the previous arrival, never from completion, so
// a stall makes the loop send back-to-back until it has caught up — and the
// lateness samples say how far behind the generator ran.
func (r *run) drivePaced(mw *live.Middleware, rate float64, d time.Duration, rng *rand.Rand) probeLoad {
	var out probeLoad
	gap := scenario.Probes{Schedule: "poisson", Rate: rate}.Gaps(d, rng)
	start := time.Now()
	next := start
	for {
		now := time.Now()
		if now.Before(next) {
			time.Sleep(next.Sub(now))
			now = time.Now()
		}
		elapsed := now.Sub(start)
		if elapsed >= d {
			return out
		}
		if out.sent%16 == 0 {
			out.lateMs = append(out.lateMs, float64(now.Sub(next))/1e6)
		}
		r.sendProbe(mw, &out, 1024)
		next = next.Add(gap(elapsed))
	}
}

// driveFlood calls SendProbe back-to-back for d from the calling goroutine:
// a closed loop of one client against the writer queues' backpressure.
func (r *run) driveFlood(mw *live.Middleware, d time.Duration) probeLoad {
	var out probeLoad
	deadline := time.Now().Add(d)
	for {
		if out.sent%256 == 0 && !time.Now().Before(deadline) {
			return out
		}
		r.sendProbe(mw, &out, 1<<16)
	}
}

// sendProbe sends the load's next probe on the next of the six pairs; a
// traced run times one call in every and records it as a span.
func (r *run) sendProbe(mw *live.Middleware, out *probeLoad, every uint64) {
	pair := sixPairs[out.sent%uint64(len(sixPairs))]
	if r.traced && out.sent%every == 0 {
		s0 := r.clk.ns()
		mw.SendProbe(pair[0], pair[1])
		s1 := r.clk.ns()
		out.sendNs = append(out.sendNs, float64(s1-s0))
		r.spans.Add("live.SendProbe", 0, s0, s1, fmt.Sprintf("probe-%d", out.sent))
	} else {
		mw.SendProbe(pair[0], pair[1])
	}
	out.sent++
}

// drainProbes waits for in-flight probes to land and checks none was lost.
func (r *run) drainProbes(mw *live.Middleware, since [2]uint64) (delivered uint64) {
	waitFor(10*time.Second, func() bool {
		s, d := mw.ProbeStats()
		return d >= s
	})
	s, d := mw.ProbeStats()
	sent, delivered := s-since[0], d-since[1]
	lost := int64(sent) - int64(delivered)
	if lost < 0 {
		lost = -lost
	}
	r.checks.Count(int64(sent), lost, "probes delivered after drain")
	return delivered
}

func probeStats(mw *live.Middleware) [2]uint64 {
	s, d := mw.ProbeStats()
	return [2]uint64{s, d}
}

func netDelivered(mw *live.Middleware) uint64 {
	_, d := mw.NetworkStats()
	return d
}

// checkHealthy asserts the middleware reports no unrecoverable condition and
// samples its current recovery line. A line with violations is counted, not
// failed: TB's consistency rests on timers firing within the modelled clock
// deviation (2 ms here), and on a loaded two-core sandbox a Go timer now and
// then fires later than that, which shows as orphan messages on the line
// sampled next. How often is reported as tb.line_violations.
func (r *run) checkHealthy(mw *live.Middleware, when string) {
	failed, why := mw.Failure()
	r.checks.Expect(!failed, "%s: middleware failed: %s", when, why)
	s0 := r.clk.ns()
	line, err := mw.RecoveryLine()
	if r.traced {
		r.spans.Add("live.RecoveryLine", 0, s0, r.clk.ns(), when)
	}
	r.checks.Expect(err == nil, "%s: recovery line: %v", when, err)
	if err != nil {
		return
	}
	r.lineSamples++
	if violations, _ := line.CheckDetailed(); len(violations) > 0 {
		r.layer["tb.line_violations"]++
		r.logf("%s: recovery line sample has %d violation(s), first: %v", when, len(violations), violations[0])
	}
}

// checkStableLogs reopens every node's stable log after Stop: it must hold,
// undamaged, the round the node last acknowledged.
func (r *run) checkStableLogs(s *liveSystem) {
	for _, id := range msg.Processes() {
		var ndc uint64
		if err := s.mw.Inspect(id, func(_ *mdcd.Process, cp *tb.Checkpointer) { ndc = cp.Ndc() }); err != nil {
			r.checks.Expect(false, "inspect %v: %v", id, err)
			continue
		}
		path := filepath.Join(s.dir, fmt.Sprintf("%v.stable", id))
		s0 := r.clk.ns()
		fb, info, err := storage.OpenFile(path)
		if r.traced {
			r.spans.Add("storage.OpenFile", 0, s0, r.clk.ns(), id.String())
		}
		if err != nil {
			r.checks.Expect(false, "reopen %s: %v", path, err)
			continue
		}
		held := ndc == 0
		for _, rec := range info.Records {
			if rec.Round == ndc {
				held = true
			}
		}
		r.checks.Expect(held && !info.TailDamaged,
			"%v: stable log holds round %d: %v, tail damaged: %v", id, ndc, held, info.TailDamaged)
		if err := fb.Close(); err != nil {
			r.checks.Expect(false, "close %s: %v", path, err)
		}
	}
}

// liveReadings turns one timed window of a live system into the per-layer
// numbers that come from the program's obs registry: before and after are
// reg.Snapshot() at the window's ends.
func (r *run) liveReadings(before, after obs.Snapshot, w *window, delivered uint64) {
	hist := func(name string) Hist { return HistOf(after, name, "").Sub(HistOf(before, name, "")) }
	count := func(name string) float64 { return CounterOf(after, name, "") - CounterOf(before, name, "") }
	l := r.layer
	l["live.batch_frames_mean"] = hist("synergy_live_batch_frames").Mean()
	l["live.batch_bytes_mean"] = hist("synergy_live_batch_bytes").Mean()
	l["live.send_blocked"] = count("synergy_live_send_blocked_total")
	l["live.transport_retries"] = count("synergy_live_transport_retries_total")
	l["live.crc_drops"] = count("synergy_live_crc_dropped_frames_total")
	rec := hist("synergy_live_recovery_seconds")
	l["live.recovery_pass_ms"] = rec.Mean() * 1e3
	l["live.resends_per_recovery"] = Ratio(count("synergy_live_resends_total"), float64(rec.Count))
	l["mdcd.checkpoints_per_kmsg"] = Ratio(1000*count("synergy_mdcd_checkpoints_total"), float64(delivered))
	l["mdcd.ats_per_s"] = Ratio(count("synergy_mdcd_ats_total"), w.wall)
	l["mdcd.ndc_deferred"] = count("synergy_mdcd_ndc_deferred_total")
	l["mdcd.duplicates"] = count("synergy_mdcd_duplicates_total")
	commits := count("synergy_tb_stable_commits_total")
	l["tb.block_planned_ms"] = hist("synergy_tb_blocking_seconds").Mean() * 1e3
	l["tb.replaces_per_round"] = Ratio(count("synergy_tb_stable_replaces_total"), commits)
	l["tb.skipped_busy"] = count("synergy_tb_skipped_busy_total")
	l["tb.commit_retries"] = count("synergy_tb_commit_retries_total")
	if fs := hist("synergy_storage_fsync_seconds"); fs.Count > 0 {
		l["storage.fsync_us"] = fs.Mean() * 1e6
	}
	l["storage.compactions_per_100_rounds"] = Ratio(100*count("synergy_storage_compactions_total"), commits)
	l["go.mallocs_per_msg"] = Ratio(float64(w.mallocs), float64(delivered))
	l["go.gc_pause_ms"] = w.gcPauseMs
	l["go.gc_cycles"] = float64(w.gcCycles)
}

// traceSlice is what one reading of the program's trace contributes: the
// application deliveries and checkpoint rounds it holds that began since the
// reading before it.
type traceSlice struct {
	pairs  []Delivery
	rounds []Round
}

// traceReader reads the middleware's trace in slices. An unbounded trace is
// read once, after the window; a ring (the saturated workload keeps only the
// newest 65 536 events, a fifth of a second) is read once a second during
// the window, each reading pairing what the ring then holds.
type traceReader struct {
	r    *run
	s    *liveSystem
	from vtime.Time
	// checkDelivered makes a send older than the drain cut with no
	// delivery in the trace a failed operation. It is off for the ring: a
	// fifth of a second of history cannot tell a lost message from one a
	// stalled host delivered late.
	checkDelivered bool
	slices         []traceSlice
}

// read pairs the events recorded since the last reading.
func (t *traceReader) read() []trace.Event {
	now := t.s.at(time.Now())
	events := t.s.mw.Trace().Events()
	pairs, unmatched := PairDeliveries(events, t.from, now.Add(-drainCut))
	if t.checkDelivered {
		t.r.checks.Count(int64(len(pairs)+unmatched), int64(unmatched), "application sends older than the drain cut with a delivery")
	}
	t.slices = append(t.slices, traceSlice{pairs, PairRounds(events, t.from)})
	t.from = now
	return events
}

// deliveryReadings reports application delivery latency and the blocking
// periods from the trace slices: each slice (a second of an unbounded trace,
// or one reading of a ring) is summarised on its own and the median slice is
// reported. It returns the p90 and the sample count. The p90 is what the
// message workloads report as their operation: between a fifth and a half of
// the messages here take a fast path (≈ 0.1–0.3 ms) and the rest wait for the
// runtime's 1 ms timer granularity (≈ 1.2–1.4 ms), so the median sits on the
// cliff between the two and flips with the share; a twelfth are held through
// a blocking period (≈ 5 ms), which is what p99 shows. p90 is the latency of
// a message that took neither shortcut nor a block.
func (r *run) deliveryReadings(t *traceReader, width time.Duration) (p90 float64, n int) {
	var lat [][]float64
	var pairs []Delivery
	var rounds []Round
	for _, sl := range t.slices {
		pairs, rounds = append(pairs, sl.pairs...), append(rounds, sl.rounds...)
		if len(t.slices) > 1 {
			lat = append(lat, SliceMs(sl.pairs, 0, 1<<62)...)
		}
	}
	if len(t.slices) == 1 && len(pairs) > 0 {
		lat = SliceMs(pairs, pairs[0].Sent, int64(width))
	}
	l := r.layer
	p50, p90, p99 := SlicePercentile(lat, 50), SlicePercentile(lat, 90), SlicePercentile(lat, 99)
	l["live.app_delivery_p50_ms"], l["live.app_delivery_p90_ms"], l["live.app_delivery_p99_ms"] = p50, p90, p99
	r.logf("app delivery: n=%d in %d slices, median slice p50=%.4f ms p90=%.4f ms p99=%.4f ms", len(pairs), len(lat), p50, p90, p99)
	if len(rounds) > 0 {
		block := make([]float64, len(rounds))
		var write []float64
		for i, rd := range rounds {
			block[i] = rd.BlockMs()
			if ms := rd.StableMs(); ms > 0 {
				write = append(write, ms)
			}
		}
		b := Summarize(block)
		l["tb.block_actual_p50_ms"] = b.P50
		l["tb.block_overrun_ms"] = b.P50 - l["tb.block_planned_ms"]
		l["tb.stable_write_p50_ms"] = Median(write)
		r.logf("blocking: n=%d actual p50=%.4f ms p%g=%.4f ms planned mean=%.4f ms stable write p50=%.4f ms",
			b.N, b.P50, b.TailPct, b.Tail, l["tb.block_planned_ms"], l["tb.stable_write_p50_ms"])
	}
	if r.traced {
		r.traceSpans(int64(t.s.created.Sub(r.clk.origin)), pairs, rounds)
	}
	return p90, len(pairs)
}

// traceSpans rebuilds spans from the program's own trace, shifted by offset
// onto the run's clock: one deliver span per sampled message (1 in 64: a run
// delivers 10^5) and one block span per round with its stable write as a
// child. (The trace stamps a recovery's NodeRestarted and RolledBack events
// with one instant, so there is nothing to rebuild under a recovery call.)
func (r *run) traceSpans(offset int64, pairs []Delivery, rounds []Round) {
	for i, p := range pairs {
		if i%64 == 0 {
			r.spans.Add("deliver", 0, offset+int64(p.Sent), offset+int64(p.Received), fmt.Sprintf("%v>%v#%d", p.From, p.To, p.SN))
		}
	}
	for i, rd := range rounds {
		ref := fmt.Sprintf("%v/round-%d", rd.Proc, i)
		id := r.spans.Add("block", 0, offset+int64(rd.BlockStart), offset+int64(rd.BlockEnd), ref)
		if rd.StableEnded != 0 {
			r.spans.Add("stable_write", id, offset+int64(rd.StableBegun), offset+int64(rd.StableEnded), ref)
		}
	}
}

// probeWatch reads the transport's sampled delivery-latency histogram once a
// second while probes are paced, so probe latency too is the median slice's.
// The quantiles are interpolated inside buckets that double (exact stamps
// are a later change); p95 is the tail because p99 sits on a bucket edge here
// and flips between two buckets from run to run.
type probeWatch struct {
	stopTick func()
	reg      *obs.Registry
	last     Hist
	mean     []float64
	p50, p95 []float64
	n        uint64
}

func watchProbes(reg *obs.Registry, width time.Duration) *probeWatch {
	p := &probeWatch{reg: reg}
	p.last = HistOf(reg.Snapshot(), "synergy_live_delivery_latency_seconds", "")
	p.stopTick = every(width, p.read)
	return p
}

func (p *probeWatch) read() {
	h := HistOf(p.reg.Snapshot(), "synergy_live_delivery_latency_seconds", "")
	if d := h.Sub(p.last); d.Count >= minSlice {
		p.mean = append(p.mean, d.Mean()*1e3)
		p.p50, p.p95, p.n = append(p.p50, d.Quantile(0.50)*1e3), append(p.p95, d.Quantile(0.95)*1e3), p.n+d.Count
	}
	p.last = h
}

// finish reports probe latency beside the generator's lateness (the
// histogram starts at actual enqueue, so how late the generator ran is not in
// it) and returns the median slice's mean latency, which is exact — the
// histogram's sum over its count — where the quantiles are interpolated.
func (p *probeWatch) finish(r *run, load probeLoad) (meanMs float64, n int) {
	p.stopTick()
	p.read()
	late := Summarize(load.lateMs)
	l := r.layer
	l["live.probe_mean_ms"], l["live.probe_p50_ms"], l["live.probe_p95_ms"] = Median(p.mean), Median(p.p50), Median(p.p95)
	l["live.gen_late_p99_ms"] = late.Tail
	if len(load.sendNs) > 0 {
		l["live.sendprobe_ns"] = Median(load.sendNs)
	}
	r.logf("probe latency (sampled n=%d in %d slices; quantiles bucket-interpolated): median slice mean=%.4f ms p50=%.4f ms p95=%.4f ms; generator lateness n=%d p50=%.4f ms p%g=%.4f ms",
		p.n, len(p.p50), l["live.probe_mean_ms"], l["live.probe_p50_ms"], l["live.probe_p95_ms"], late.N, late.P50, late.TailPct, late.Tail)
	return l["live.probe_mean_ms"], int(p.n)
}

// runLiveSteady is live3-steady: the full stack under moderate generator
// load plus an open-loop probe stream.
func (r *run) runLiveSteady() error {
	p := liveParams{internal: 2000, external: 200, protocol: true}
	if err := r.extraSetups(p, r.setupReps()); err != nil {
		return err
	}
	s, err := r.assembleLive(p)
	if err != nil {
		return err
	}
	r.warmUp(s)
	rng := rand.New(rand.NewSource(r.seed))
	before, probes0, net0 := s.reg.Snapshot(), probeStats(s.mw), netDelivered(s.mw)
	tr := &traceReader{r: r, s: s, from: s.at(time.Now()), checkDelivered: true}
	probes := watchProbes(s.reg, r.scaled(time.Second))
	sl := startSlices(r.scaled(500*time.Millisecond), func() uint64 { return netDelivered(s.mw) })
	w := openWindow(r.clk)
	load := r.drivePaced(s.mw, 50000, r.window(1), rng)
	w.close(r.clk)
	delivered := netDelivered(s.mw) - net0
	rate, cpuUs := sl.finish(w, delivered)
	r.logf("%s", sl.describe())
	probes.finish(r, load)
	r.drainProbes(s.mw, probes0)
	after := s.reg.Snapshot()
	tr.read()
	r.checkHealthy(s.mw, "end of run")
	r.stopLive(s)
	r.checkStableLogs(s)

	r.liveReadings(before, after, w, delivered)
	p90, n := r.deliveryReadings(tr, r.scaled(time.Second))
	r.setOp(p90, n, "application message, MsgSent to MsgDelivered, p90 of the median one-second slice")
	r.e2e[MsgsPerS], r.e2e[CPUUsPerMsg] = rate, cpuUs
	r.layer["live.proto_msgs_per_s"] = float64(delivered-load.sent) / w.wall
	r.logf("delivered %d frames (%d probes) in %.3f s; median 0.5 s slice %.0f msgs/s, %.4f CPU us/msg", delivered, load.sent, w.wall, rate, cpuUs)
	return nil
}

// runLiveSaturate is live3-saturate: generator rates so high that their
// timers degenerate to back-to-back sends, a closed loop of the program's
// own six generator goroutines.
func (r *run) runLiveSaturate() error {
	p := liveParams{internal: 200000, external: 20000, traceCap: 1 << 16, protocol: true}
	if err := r.extraSetups(p, r.setupReps()); err != nil {
		return err
	}
	s, err := r.assembleLive(p)
	if err != nil {
		return err
	}
	r.warmUp(s)
	before, net0 := s.reg.Snapshot(), netDelivered(s.mw)
	tr := &traceReader{r: r, s: s, from: s.at(time.Now())}
	stopTrace := every(r.scaled(time.Second), func() { tr.read() })
	sl := startSlices(r.scaled(500*time.Millisecond), func() uint64 { return netDelivered(s.mw) })
	w := openWindow(r.clk)
	time.Sleep(r.window(1))
	w.close(r.clk)
	delivered := netDelivered(s.mw) - net0
	rate, cpuUs := sl.finish(w, delivered)
	r.logf("%s", sl.describe())
	stopTrace()
	after := s.reg.Snapshot()
	tr.read()
	r.checkHealthy(s.mw, "end of run")
	r.stopLive(s)
	r.checkStableLogs(s)

	r.liveReadings(before, after, w, delivered)
	p90, n := r.deliveryReadings(tr, 0)
	r.setOp(p90, n, "application message, MsgSent to MsgDelivered, p90 of the median once-a-second trace reading")
	// The rate reported end to end is per second of processor time, not per
	// second of the wall clock. These generators do not saturate anything:
	// a 5 µs timer that expires while both of the runtime's processors are
	// idle waits out a 1 ms epoll_wait, so half the time nothing runs, and
	// how often that happens follows the host — over forty runs the
	// wall-clock rate went as the 1.45th power of the reference kernel's
	// cost, 90 000/s on a fast quarter of an hour and 157 000/s while a
	// neighbour slowed the machine. It is reported per layer.
	r.e2e[MsgsPerS], r.e2e[CPUUsPerMsg] = 1e6/cpuUs, cpuUs
	r.layer["live.proto_msgs_per_s"] = rate
	r.logf("delivered %d frames in %.3f s; median 0.5 s slice %.0f msgs per wall second with %.2f processors busy, %.4f CPU us/msg, %.0f msgs per processor second",
		delivered, w.wall, rate, rate*cpuUs/1e6, cpuUs, 1e6/cpuUs)
	return nil
}

// runWireOnly is wire-only: the same assembly with the protocol never
// started, first under paced probes, then flooded.
func (r *run) runWireOnly() error {
	p := liveParams{internal: 2000, external: 200}
	if err := r.extraSetups(p, r.setupReps()); err != nil {
		return err
	}
	s, err := r.assembleLive(p)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.seed))
	r.drivePaced(s.mw, 50000, r.scaled(300*time.Millisecond), rng) // warm-up: dial, pools, page cache
	r.drainProbes(s.mw, [2]uint64{})

	probes0 := probeStats(s.mw)
	probes := watchProbes(s.reg, r.scaled(time.Second))
	load := r.drivePaced(s.mw, 50000, r.window(0.5), rng)
	mean, n := probes.finish(r, load)
	r.setOp(mean, n, "probe, transport enqueue to delivery, paced phase, mean of the median one-second slice")
	r.drainProbes(s.mw, probes0)

	before, probes0 := s.reg.Snapshot(), probeStats(s.mw)
	sl := startSlices(r.scaled(500*time.Millisecond), func() uint64 { return probeStats(s.mw)[1] })
	w := openWindow(r.clk)
	flood := r.driveFlood(s.mw, r.window(0.5))
	w.close(r.clk)
	rate, cpuUs := sl.finish(w, probeStats(s.mw)[1]-probes0[1])
	r.logf("%s", sl.describe())
	delivered := r.drainProbes(s.mw, probes0)
	after := s.reg.Snapshot()
	failed, why := s.mw.Failure()
	r.checks.Expect(!failed, "end of run: middleware failed: %s", why)
	r.stopLive(s)

	r.liveReadings(before, after, w, delivered)
	if len(flood.sendNs) > 0 {
		r.layer["live.sendprobe_ns"] = Median(flood.sendNs)
	}
	r.e2e[MsgsPerS], r.e2e[CPUUsPerMsg] = rate, cpuUs
	r.layer["live.probe_flood_per_s"] = rate
	r.logf("flood: %d probes in %.3f s; median 0.5 s slice %.0f msgs/s, %.4f CPU us/msg", delivered, w.wall, rate, cpuUs)
	return nil
}

// runLiveRecover is live3-recover: the steady stack without probes and a
// fault every 200 ms, victims rotating: two of every three faults kill the
// node and restart it 2Δ later, the third is an in-place hardware fault (on
// a different victim each time round). It ends with one software fault.
func (r *run) runLiveRecover() error {
	p := liveParams{internal: 2000, external: 200, protocol: true}
	if err := r.extraSetups(p, r.setupReps()); err != nil {
		return err
	}
	s, err := r.assembleLive(p)
	if err != nil {
		return err
	}
	r.warmUp(s)
	victims := []msg.ProcID{msg.P2, msg.P1Sdw, msg.P1Act}
	var restartMs, hwMs, killUs []float64
	before, net0 := s.reg.Snapshot(), netDelivered(s.mw)
	tr := &traceReader{r: r, s: s, from: s.at(time.Now())}
	sl := startSlices(r.scaled(time.Second), func() uint64 { return netDelivered(s.mw) })
	w := openWindow(r.clk)
	deadline := w.t0.Add(r.window(1))
	next := w.t0
	for i := 0; ; i++ {
		next = next.Add(r.scaled(200 * time.Millisecond))
		if !next.Before(deadline) {
			break
		}
		sleepUntil(next)
		victim := victims[i%len(victims)]
		ref := fmt.Sprintf("recovery-%d/%v", i, victim)
		// The line a fault would restore is sampled just before the fault
		// restores it: by now the previous recovery is a few rounds old.
		r.checkHealthy(s.mw, "before "+ref)
		if i%3 != (i/3)%3 {
			s0 := r.clk.ns()
			err := s.mw.KillNode(victim)
			s1 := r.clk.ns()
			r.checks.Expect(err == nil, "%s: KillNode: %v", ref, err)
			time.Sleep(2 * liveDelta)
			s2 := r.clk.ns()
			err = s.mw.RestartNode(victim)
			s3 := r.clk.ns()
			r.checks.Expect(err == nil, "%s: RestartNode: %v", ref, err)
			killUs = append(killUs, float64(s1-s0)/1e3)
			restartMs = append(restartMs, float64(s3-s2)/1e6)
			if r.traced {
				id := r.spans.Add("recover", 0, s0, s3, ref)
				r.spans.Add("live.KillNode", id, s0, s1, ref)
				r.spans.Add("live.RestartNode", id, s2, s3, ref)
			}
		} else {
			s0 := r.clk.ns()
			err := s.mw.InjectHardwareFault(victim)
			s1 := r.clk.ns()
			r.checks.Expect(err == nil, "%s: InjectHardwareFault: %v", ref, err)
			hwMs = append(hwMs, float64(s1-s0)/1e6)
			if r.traced {
				id := r.spans.Add("recover", 0, s0, s1, ref)
				r.spans.Add("live.InjectHardwareFault", id, s0, s1, ref)
			}
		}
		failed, why := s.mw.Failure()
		r.checks.Expect(!failed, "%s: middleware failed: %s", ref, why)
	}
	w.close(r.clk)
	delivered := netDelivered(s.mw) - net0
	rate, cpuUs := sl.finish(w, delivered)
	r.logf("%s", sl.describe())
	after := s.reg.Snapshot()

	s.mw.ActivateSoftwareFault()
	took := waitFor(5*time.Second, func() bool { return s.mw.ActiveC1() == msg.P1Sdw })
	r.checks.Expect(took, "software fault did not end with the shadow active within 5 s")
	r.awaitRounds(s, 2)
	// Faults discard in-flight messages by design (the sender's rollback
	// un-sends them), so this reader does not assert every send arrives.
	events := tr.read()
	r.checkHealthy(s.mw, "end of run")
	r.stopLive(s)
	r.checkStableLogs(s)

	r.liveReadings(before, after, w, delivered)
	p90, n := r.deliveryReadings(tr, r.scaled(time.Second))
	r.setOp(p90, n, "application message under faults, MsgSent to MsgDelivered (a re-sent message counts from its first send), p90 of the median one-second slice")
	restart, hw := Summarize(restartMs), Summarize(hwMs)
	r.layer["live.restart_p50_ms"] = restart.P50
	r.layer["live.hw_recover_p50_ms"] = hw.P50
	r.layer["live.kill_us"] = Median(killUs)
	r.layer["live.service_gap_p50_ms"] = Median(ServiceGapsMs(events))
	r.e2e[MsgsPerS], r.e2e[CPUUsPerMsg] = rate, cpuUs
	r.layer["live.proto_msgs_per_s"] = rate
	r.logf("faults: %d restarts (p50 %.4f ms) + %d in-place (p50 %.4f ms); %d frames delivered in %.3f s; median 1 s slice %.0f msgs/s, %.4f CPU us/msg; %d of %d recovery-line samples had violations",
		restart.N, restart.P50, hw.N, hw.P50, delivered, w.wall, rate, cpuUs, int(r.layer["tb.line_violations"]), r.lineSamples)
	return nil
}
