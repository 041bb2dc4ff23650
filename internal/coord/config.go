// Package coord is the three-process assembly of the coordinated
// fault-tolerance system, written once: three MDCD processes on three nodes,
// a TB checkpointer per node, the routing between them, the workload streams,
// and the recovery orchestration for both software errors (AT failures:
// demote P1act, roll back or forward by dirty bit, shadow takes over) and
// hardware faults (node crashes: common stable round, re-send the saved
// unacknowledged sets, restart the timers on one tick). It also implements
// the paper's comparison baselines as scheme variants.
//
// Everything here runs against the Runtime seam (runtime.go), which has two
// implementations: the discrete-event simulator in this package (sim.go;
// NewSystem) behind every table, figure and simulated scenario, and the
// wall-clock runtime of internal/live (New) — node locks, real timers, the
// channel/TCP transports, durable storage. This package reads no wall clock,
// arms no timer and starts no goroutine.
package coord

import (
	"fmt"
	"time"

	"github.com/synergy-ft/synergy/internal/app"
	"github.com/synergy-ft/synergy/internal/at"
	"github.com/synergy-ft/synergy/internal/chaos"
	"github.com/synergy-ft/synergy/internal/obs"
	"github.com/synergy-ft/synergy/internal/tb"
	"github.com/synergy-ft/synergy/internal/vtime"
)

// Scheme selects which fault-tolerance composition the system runs.
type Scheme uint8

// Scheme variants.
const (
	// Coordinated is the paper's contribution: modified MDCD + adapted TB
	// with Ndc-gated knowledge updates and dirty-dependent blocking.
	Coordinated Scheme = iota + 1
	// WriteThrough is the straight extension of MDCD the paper argues
	// against: original MDCD, with every validation event writing a
	// Type-2 checkpoint through to stable storage; no TB timers.
	WriteThrough
	// Naive is the simple combination of Section 4.1: modified MDCD
	// running beside the unmodified (original) TB protocol, with no Ndc
	// gating and all messages blocked during blocking periods. It
	// reproduces the Figure 4 failures.
	Naive
	// TBOnly runs the original TB protocol with no guarded operation
	// (plain high-confidence processes); the hardware-fault-only baseline
	// and the configuration of Figure 2.
	TBOnly
	// MDCDOnly runs the modified MDCD protocol with volatile checkpoints
	// only: software fault tolerance without any hardware fault
	// tolerance.
	MDCDOnly
	// ContentOnly is the Section 4.1 strawman: the Coordinated scheme with
	// checkpoint contents chosen by the dirty bit, but writes not
	// responsive to confidence changes during blocking, blocking not
	// extended, passed-AT notifications blocked too and Ndc gating off.
	// Its recoverability failure is Figure 4(b).
	ContentOnly
	// OriginalMDCD is MDCDOnly with the original MDCD protocol (Type-2
	// checkpoints, no pseudo dirty bit), as in the paper's Figure 1.
	OriginalMDCD
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case Coordinated:
		return "coordinated"
	case WriteThrough:
		return "write-through"
	case Naive:
		return "naive"
	case TBOnly:
		return "tb-only"
	case MDCDOnly:
		return "mdcd-only"
	case ContentOnly:
		return "content-only"
	case OriginalMDCD:
		return "original-mdcd"
	default:
		return fmt.Sprintf("scheme(%d)", uint8(s))
	}
}

// UsesTBTimers reports whether the scheme runs periodic TB checkpointing.
func (s Scheme) UsesTBTimers() bool {
	return s == Coordinated || s == ContentOnly || s == Naive || s == TBOnly
}

// Guarded reports whether the scheme runs guarded operation (active +
// shadow + acceptance tests).
func (s Scheme) Guarded() bool { return s != TBOnly }

// Config assembles a system.
type Config struct {
	// Scheme selects the fault-tolerance composition.
	Scheme Scheme
	// Seed drives all randomness; identical configs and seeds replay
	// identical runs.
	Seed int64
	// Clock bounds every node's local clock (δ, ρ).
	Clock vtime.ClockConfig
	// Net bounds the interconnect delays (tmin, tmax).
	Net NetConfig
	// CheckpointInterval is the TB interval Δ.
	CheckpointInterval time.Duration
	// DisableBlocking forwards to tb.Config (Figure 2 ablation).
	DisableBlocking bool
	// DisableNdcGate turns off the Ndc matching rule for passed-AT
	// knowledge updates (ablation: a notification from a process that
	// already completed its stable checkpoint can then wrongly adjust
	// checkpoint contents).
	DisableNdcGate bool
	// Workload1 drives application component 1 (P1act and its shadow).
	Workload1 app.Workload
	// Workload2 drives application component 2 (P2).
	Workload2 app.Workload
	// Test is the acceptance test applied to external messages.
	Test at.Test
	// TraceEnabled records protocol events (costs memory; off for
	// long campaigns). Without it the checkpointers get no recorder and
	// format no trace notes, so a runtime that records every run sets it.
	TraceEnabled bool
	// Chaos injects link faults below the interconnect's reliable-delivery
	// abstraction, mirroring the live transport's semantics in virtual time
	// (see NewInterconnect). Crashes in the spec are NOT scheduled here —
	// drive them through CrashNode/RebootNode so the caller controls the
	// reboot — and fsync stalls have no simulated storage to stall; both
	// validate but are ignored. The zero Spec injects nothing.
	Chaos chaos.Spec
	// Obs, when non-nil, registers the run's metrics (TB blocking
	// histograms, MDCD counters, chaos fault counters) so scenario
	// expectations can read the same families the live stack exports.
	Obs *obs.Registry
}

// DefaultConfig returns the baseline parameters used across the experiments:
// a 10s checkpoint interval, millisecond-scale clock deviation, and LAN-like
// delay bounds.
func DefaultConfig(scheme Scheme, seed int64) Config {
	return Config{
		Scheme:             scheme,
		Seed:               seed,
		Clock:              vtime.ClockConfig{MaxDeviation: 4 * time.Millisecond, DriftRate: 1e-5},
		Net:                NetConfig{MinDelay: 200 * time.Microsecond, MaxDelay: 20 * time.Millisecond},
		CheckpointInterval: 10 * time.Second,
		// Computation is message-driven by default (LocalStepRate 0):
		// replica states then re-converge after a hardware rollback,
		// because every state-changing input is restorable from the
		// unacknowledged logs. Local steps are supported for workloads
		// that do not need exact replica-state identity across faults.
		Workload1: app.Workload{InternalRate: 1, ExternalRate: 0.05},
		Workload2: app.Workload{InternalRate: 1, ExternalRate: 0.05},
		Test:      at.Perfect(),
	}
}

// Validate checks the assembled configuration.
func (c Config) Validate() error {
	if c.Scheme < Coordinated || c.Scheme > OriginalMDCD {
		return fmt.Errorf("coord: unknown scheme %d", c.Scheme)
	}
	if err := c.Clock.Validate(); err != nil {
		return err
	}
	if err := c.Net.Validate(); err != nil {
		return err
	}
	// An all-zero workload selects a scripted run (events driven
	// explicitly through the EmitC* methods).
	if (c.Workload1 != app.Workload{}) {
		if err := c.Workload1.Validate(); err != nil {
			return fmt.Errorf("workload1: %w", err)
		}
	}
	if (c.Workload2 != app.Workload{}) {
		if err := c.Workload2.Validate(); err != nil {
			return fmt.Errorf("workload2: %w", err)
		}
	}
	if c.Test == nil {
		return fmt.Errorf("coord: nil acceptance test")
	}
	if err := c.Chaos.Validate(); err != nil {
		return err
	}
	if c.Scheme.UsesTBTimers() {
		return c.tbConfig().Validate()
	}
	return nil
}

// tbConfig derives the per-node TB configuration.
func (c Config) tbConfig() tb.Config {
	variant := tb.Adapted
	if c.Scheme == Naive || c.Scheme == TBOnly {
		variant = tb.Original
	}
	return tb.Config{
		Variant:              variant,
		Interval:             c.CheckpointInterval,
		Clock:                c.Clock,
		MinDelay:             c.Net.MinDelay,
		MaxDelay:             c.Net.MaxDelay,
		DisableBlocking:      c.DisableBlocking,
		DisableContentAdjust: c.Scheme == ContentOnly,
	}
}
