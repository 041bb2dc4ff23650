// Package live is the prototype middleware (the paper's "GSU Middleware"):
// the wall-clock runtime of the three-process assembly in internal/coord.
// The protocol — the mdcd.Process state machines, tb.Checkpointer, their
// wiring, routing, the workload streams and both recovery procedures — is
// exactly the code the discrete-event simulator runs (coord.System); this
// package implements coord.Runtime for it with real goroutines, wall-clock
// timers, timer-delayed channels or loopback TCP as the interconnect and
// optional durable stable storage, so races and ordering assumptions are
// exercised for real (run the tests with -race). It adds what only a real
// deployment has: hosts that can be killed and rebooted from disk
// (KillNode/RestartNode), fail-stop on disk faults, chaos schedules, probes
// and the transport-level metrics.
//
// Concurrency model: one lock per node (the runtime's Hold) serializes that
// node's protocol actions (message delivery, timer callbacks, application
// events); network and trace state have their own locks; system-wide
// procedures take every node in process-ID order.
package live

import (
	"fmt"
	"sync"
	"time"

	"github.com/synergy-ft/synergy/internal/app"
	"github.com/synergy-ft/synergy/internal/at"
	"github.com/synergy-ft/synergy/internal/chaos"
	"github.com/synergy-ft/synergy/internal/coord"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/obs"
	"github.com/synergy-ft/synergy/internal/seam/wall"
	"github.com/synergy-ft/synergy/internal/trace"
	"github.com/synergy-ft/synergy/internal/vtime"
)

// Config assembles a live middleware instance. Durations are wall-clock;
// tests use milliseconds where the paper's deployment would use seconds.
type Config struct {
	// Seed drives workload and AT randomness.
	Seed int64
	// Clock bounds the simulated clock error layered over the wall clock
	// (the middleware's nodes share one host clock, so δ/ρ model the
	// deployment's timer quality).
	Clock vtime.ClockConfig
	// MinDelay and MaxDelay bound message delivery.
	MinDelay, MaxDelay time.Duration
	// CheckpointInterval is the TB interval Δ.
	CheckpointInterval time.Duration
	// Workload1 and Workload2 drive the two components.
	Workload1, Workload2 app.Workload
	// Test is the acceptance test for external messages.
	Test at.Test
	// Net selects the interconnect implementation (default: in-process
	// channels; TCPTransport runs loopback sockets).
	Net Transport
	// BatchMaxFrames caps sub-frames per wire batch (default 512). Setting
	// it to 1 degenerates to per-message framing — the benchmark baseline.
	BatchMaxFrames int
	// StableDir, when non-empty, backs each node's stable storage with a
	// durable append-only log at <StableDir>/<proc>.stable. Committed
	// rounds then survive a node crash: KillNode/RestartNode reboot the
	// node from the on-disk checkpoints. Empty keeps stable storage in
	// memory (the simulator and fast tests).
	StableDir string
	// Chaos injects transport faults (drop, duplication, corruption,
	// delay jitter, partitions) and crash-restart schedules into the run.
	// Frame-level faults and partitions require TCPTransport; crash
	// schedules additionally require StableDir so victims can reboot.
	Chaos chaos.Spec
	// Obs, when non-nil, registers runtime metrics for the run: the
	// middleware-level transport/recovery counters plus per-process
	// (proc-labeled) mdcd, tb and storage bundles. Nil disables all
	// instrumentation (nil-safe no-ops), leaving behavior identical.
	Obs *obs.Registry
	// TraceCapacity, when > 0, bounds the trace recorder to the newest
	// events (a ring buffer) so unbounded soaks don't grow memory without
	// limit. Zero keeps the full history (tests and short runs).
	TraceCapacity int
}

// DefaultConfig returns a millisecond-scale configuration suitable for tests
// and demos.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:               seed,
		Clock:              vtime.ClockConfig{MaxDeviation: 2 * time.Millisecond, DriftRate: 1e-4},
		MinDelay:           200 * time.Microsecond,
		MaxDelay:           2 * time.Millisecond,
		CheckpointInterval: 100 * time.Millisecond,
		Workload1:          app.Workload{InternalRate: 50, ExternalRate: 5},
		Workload2:          app.Workload{InternalRate: 50, ExternalRate: 5},
		Test:               at.Perfect(),
	}
}

// assembly is the configuration of the three-process assembly this
// middleware runs: the coordinated scheme over its delay and clock bounds.
func (c Config) assembly() coord.Config {
	return coord.Config{
		Scheme:             coord.Coordinated,
		Seed:               c.Seed,
		Clock:              c.Clock,
		Net:                coord.NetConfig{MinDelay: c.MinDelay, MaxDelay: c.MaxDelay},
		CheckpointInterval: c.CheckpointInterval,
		Workload1:          c.Workload1,
		Workload2:          c.Workload2,
		Test:               c.Test,
		Obs:                c.Obs,
		TraceEnabled:       true, // the middleware records every run
	}
}

// Validate checks the configuration: the assembly's own rules (bounds,
// blocking period inside the interval, workloads, acceptance test), then
// what only the wall-clock runtime has.
func (c Config) Validate() error {
	if err := c.assembly().Validate(); err != nil {
		return err
	}
	if c.BatchMaxFrames < 0 {
		return fmt.Errorf("live: negative transport batching knob")
	}
	if c.TraceCapacity < 0 {
		return fmt.Errorf("live: negative trace capacity")
	}
	if err := c.Chaos.Validate(); err != nil {
		return err
	}
	if c.Net != TCPTransport && c.Chaos.FrameFaults() {
		return fmt.Errorf("live: frame-level chaos requires the TCP transport")
	}
	if c.StableDir == "" && len(c.Chaos.Crashes)+len(c.Chaos.FsyncStalls)+len(c.Chaos.DiskFaults) > 0 {
		return fmt.Errorf("live: crash, fsync-stall and disk-fault schedules require durable stable storage (StableDir)")
	}
	return nil
}

// Middleware hosts the three processes on three virtual nodes: the
// assembly (sys) over this package's wall-clock runtime.
type Middleware struct {
	cfg  Config
	sys  *coord.System
	rec  *lockedRecorder
	net  transport
	inj  *chaos.Injector
	obsm liveObs

	// rt is the execution seam: node locks, node loops, the clock.
	rt *wall.Runtime

	// mu guards probeSN.
	mu sync.Mutex
	// probeSN numbers transport-level probe messages (SendProbe); it only
	// ever increments.
	probeSN uint64

	stop chan struct{}
	wg   sync.WaitGroup
}

// lockedRecorder makes trace.Recorder safe for concurrent use.
type lockedRecorder struct {
	mu sync.Mutex
	r  *trace.Recorder
}

func (l *lockedRecorder) Record(e trace.Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.r.Record(e)
}

func (l *lockedRecorder) Count(p msg.ProcID, k trace.Kind) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.Count(p, k)
}

func (l *lockedRecorder) Events() []trace.Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.Events()
}
