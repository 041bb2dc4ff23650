package scenario

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"github.com/synergy-ft/synergy/internal/live"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/obs"
	"github.com/synergy-ft/synergy/internal/vtime"
)

// traceCapacity bounds live protocol traces so soaks can't grow memory
// without limit while still leaving enough history for post-mortems.
const traceCapacity = 65536

// drainDeadline bounds how long runLive waits for in-flight probes after the
// send window closes.
const drainDeadline = 10 * time.Second

// runLive executes the spec against the live middleware, up to but not
// including the evaluation: real goroutines, wall-clock timers, loopback TCP
// when the spec needs it, and on-disk stable logs (in a temp dir removed
// after the run) when it schedules crashes or stalls. Only the coordinated
// scheme runs live; other schemes are simulator baselines.
func runLive(spec *Spec) (*outcome, error) {
	if spec.Topology.Cluster != nil {
		return runClusterLive(spec)
	}
	if spec.SchemeName() != "coordinated" {
		return nil, fmt.Errorf("scenario %s: scheme %s runs only in the simulator", spec.Name, spec.SchemeName())
	}
	chaosSpec, err := spec.ChaosSpec()
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()

	cfg := live.DefaultConfig(spec.Seed)
	cfg.Clock = vtime.ClockConfig{MaxDeviation: spec.Topology.Deviation(), DriftRate: spec.Topology.Drift()}
	cfg.MinDelay, cfg.MaxDelay = spec.Topology.Delays()
	cfg.CheckpointInterval = spec.Topology.Interval()
	cfg.Workload1 = spec.Workload.Load(spec.Workload.Component1)
	cfg.Workload2 = spec.Workload.Load(spec.Workload.Component2)
	cfg.Test = spec.Test()
	cfg.Chaos = chaosSpec
	cfg.Obs = reg
	cfg.TraceCapacity = traceCapacity
	if spec.NeedsTCP() {
		cfg.Net = live.TCPTransport
	}
	if spec.NeedsDurable() {
		dir, err := os.MkdirTemp("", "synergy-scenario-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		cfg.StableDir = dir
	}

	mw, err := live.New(cfg)
	if err != nil {
		return nil, err
	}
	defer mw.Stop()

	// Software faults fire on wall-clock timers relative to Start.
	var faultTimers []*time.Timer
	for _, t := range spec.Faults.Software {
		faultTimers = append(faultTimers, time.AfterFunc(t.D(), mw.ActivateSoftwareFault))
	}
	defer func() {
		for _, t := range faultTimers {
			t.Stop()
		}
	}()

	start := time.Now()
	mw.Start()
	if p := spec.Workload.Probes; p != nil {
		driveProbes(mw, *p, spec.Seed, spec.Duration.D())
	} else {
		time.Sleep(spec.Duration.D())
	}
	if spec.Workload.Probes != nil {
		// Open loop has closed; wait for in-flight probes to land.
		deadline := time.Now().Add(drainDeadline)
		for {
			s, d := mw.ProbeStats()
			if d >= s || time.Now().After(deadline) {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	wall := time.Since(start).Seconds()
	mw.Stop()

	o := collect(ModeLive, mw.System(), reg)
	o.wallSeconds = wall
	o.probesSent, o.probesDelivered = mw.ProbeStats()
	if hasScheduledChaos(spec) {
		st := mw.ChaosStats()
		o.chaosStats = &st
	}
	if spec.NeedsTCP() {
		crc := mw.CRCDrops()
		o.crcDrops = &crc
	}
	o.trace = mw.Trace().Events()
	return o, nil
}

// driveProbes runs the open-loop probe driver for the send window: arrivals
// follow the schedule relative to the previous arrival, never to completion,
// so overload behaves like overload.
func driveProbes(mw *live.Middleware, p Probes, seed int64, duration time.Duration) {
	pairs := [][2]msg.ProcID{
		{msg.P1Act, msg.P2}, {msg.P2, msg.P1Act},
		{msg.P1Sdw, msg.P2}, {msg.P2, msg.P1Sdw},
		{msg.P1Act, msg.P1Sdw}, {msg.P1Sdw, msg.P1Act},
	}
	rng := rand.New(rand.NewSource(seed))
	gap := p.Gaps(duration, rng)
	start := time.Now()
	next := start
	var sends uint64
	for {
		now := time.Now()
		if now.Before(next) {
			time.Sleep(next.Sub(now))
			now = next
		}
		elapsed := now.Sub(start)
		if elapsed >= duration {
			return
		}
		pair := pairs[sends%uint64(len(pairs))]
		mw.SendProbe(pair[0], pair[1])
		sends++
		next = next.Add(gap(elapsed))
	}
}
