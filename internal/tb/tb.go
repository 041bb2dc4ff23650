// Package tb implements the time-based (TB) checkpointing protocol of Neves
// and Fuchs — stable-storage checkpoints on approximately synchronized,
// periodically resynchronized timers, with blocking periods instead of
// message-exchange coordination — in both its original form and the adapted
// form of the paper's Figure 5 that coordinates with the modified MDCD
// protocol:
//
//	createCKPT() {
//	    if (dirty_bit == 0) write_disk(current_state, 0, null);
//	    else                write_disk(rCKPT, 1, current_state);
//	    Ndc++;
//	    dCKPT_time += Δ; set_timer(createCKPT, dCKPT_time);
//	    if (worst-case deviation too large) requestResyncTimers();
//	}
//
// The write_disk semantics — begin with the chosen contents, monitor the
// dirty bit through the blocking period, abort-and-replace with the current
// state if the bit flips — are realized against the storage.Stable write
// lifecycle (Begin/Replace/Commit).
package tb

import (
	"fmt"
	"time"

	"github.com/synergy-ft/synergy/internal/checkpoint"
	"github.com/synergy-ft/synergy/internal/seam"
	"github.com/synergy-ft/synergy/internal/trace"
	"github.com/synergy-ft/synergy/internal/vtime"
)

// Variant selects the protocol form.
type Variant uint8

// Protocol variants.
const (
	// Original is the Neves-Fuchs protocol: the current state is always
	// saved, and the blocking period (δ + 2ρτ − tmin) serves consistency
	// only; recoverability comes from saving unacknowledged messages.
	Original Variant = iota + 1
	// Adapted is the paper's coordinated variant: checkpoint contents are
	// chosen by the dirty bit, the blocking period becomes
	// τ(b) = δ + 2ρτ + Tm(b) with Tm(b) = b·tmax − (1−b)·tmin, passed-AT
	// notifications are monitored during blocking, and an in-progress
	// write responds to dirty-bit changes.
	Adapted
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case Original:
		return "original"
	case Adapted:
		return "adapted"
	default:
		return fmt.Sprintf("variant(%d)", uint8(v))
	}
}

// resyncFraction triggers a timer resynchronization request when the
// worst-case deviation δ + 2ρτ exceeds this fraction of Δ. The paper's resync
// condition (Figure 5) bounds blocking-period growth the same way.
const resyncFraction = 0.25

// commitRetryLimit is how many times a failed durable commit is retried
// before the checkpointer gives up on the round: transient EIO on a real disk
// is common enough that one failure should not crash a node, and an
// in-memory Stable fails only on a protocol-ordering error. The first retry
// waits Δ/32 and each further one doubles the wait, so the limit caps it at
// eight times the first (Δ/4) and the whole ladder (15Δ/32) stays inside one
// checkpoint interval.
const commitRetryLimit = 4

// Config parameterizes a node's checkpointer.
type Config struct {
	// Variant selects original or adapted behaviour.
	Variant Variant
	// Interval is Δ, the checkpointing interval (in local clock time).
	Interval time.Duration
	// Clock carries δ (maximum mutual deviation at resync) and ρ (drift).
	Clock vtime.ClockConfig
	// MinDelay and MaxDelay are the interconnect bounds tmin and tmax.
	MinDelay, MaxDelay time.Duration
	// DisableBlocking removes the blocking period (ablation; reproduces
	// the consistency violations of the paper's Figure 2).
	DisableBlocking bool
	// DisableContentAdjust turns off the in-blocking responsiveness of
	// the adapted protocol: contents are still chosen by the dirty bit,
	// but the write ignores dirty-bit changes and the blocking period is
	// not extended to cover in-transit passed-AT notifications. This is
	// the strawman of Section 4.1 whose recoverability failure Figure
	// 4(b) illustrates.
	DisableContentAdjust bool
}

// Validate checks the configuration is self-consistent: the worst blocking
// period must fit well inside the checkpoint interval.
func (c Config) Validate() error {
	if c.Variant != Original && c.Variant != Adapted {
		return fmt.Errorf("tb: unknown variant %d", c.Variant)
	}
	if c.Interval <= 0 {
		return fmt.Errorf("tb: non-positive interval %v", c.Interval)
	}
	if err := c.Clock.Validate(); err != nil {
		return err
	}
	if c.MinDelay < 0 || c.MaxDelay < c.MinDelay {
		return fmt.Errorf("tb: invalid delay bounds [%v, %v]", c.MinDelay, c.MaxDelay)
	}
	worst := c.Clock.MaxDeviation + c.MaxDelay
	if worst >= c.Interval {
		return fmt.Errorf("tb: blocking bound %v must be below the interval %v", worst, c.Interval)
	}
	return nil
}

// BlockingPeriod returns τ(b) for the given dirty bit and elapsed time τ
// since the last resynchronization: δ + 2ρτ + Tm(b), where Tm(1) = tmax and
// Tm(0) = −tmin (Table 1). The original variant always uses Tm(0).
func (c Config) BlockingPeriod(dirty bool, elapsed time.Duration) time.Duration {
	if c.DisableBlocking {
		return 0
	}
	skew := vtime.WorstCaseSkew(c.Clock, elapsed)
	if c.Variant == Adapted && dirty && !c.DisableContentAdjust {
		return skew + c.MaxDelay
	}
	d := skew - c.MinDelay
	if d < 0 {
		d = 0
	}
	return d
}

// Host is the node-local process the checkpointer serves. The MDCD process
// type satisfies it; the interface keeps the two protocols free of direct
// package coupling, mirroring the paper's "no direct coordination" property.
type Host interface {
	// EffectiveDirty returns the bit write_disk consults (the pseudo
	// dirty bit for P1act).
	EffectiveDirty() bool
	// StableContents names a stable write's contents: the current state,
	// or with fromVolatile the most recent volatile checkpoint (rCKPT)
	// relabelled a stable checkpoint of a clean state — false if the host
	// holds none. The host answers from its own scratch, good until it
	// next changes, and the checkpointer encodes the contents at once.
	StableContents(fromVolatile bool) (checkpoint.Encoder, bool)
	// ReleaseHeld delivers the messages held during the blocking period.
	ReleaseHeld()
}

// Runtime provides time and timers; the simulator and the live middleware
// implement it.
type Runtime interface {
	// Now returns the current true time.
	Now() vtime.Time
	// After schedules fn after d of true time; Cancel disarms what it
	// armed (harmless once the timer ran).
	After(d time.Duration, fn func()) seam.Timer
	Cancel(t seam.Timer)
}

// Recorder receives trace events (satisfied by trace.Recorder via a closure
// in the coordination layer).
type Recorder func(e trace.Event)
