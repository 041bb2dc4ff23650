package tb

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/synergy-ft/synergy/internal/checkpoint"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/obs"
	"github.com/synergy-ft/synergy/internal/seam"
	"github.com/synergy-ft/synergy/internal/storage"
	"github.com/synergy-ft/synergy/internal/trace"
	"github.com/synergy-ft/synergy/internal/vtime"
)

// Checkpointer runs the TB protocol for one process: it fires createCKPT on
// the local clock every Δ, manages the blocking period and the stable write
// lifecycle, tracks unacknowledged messages, and exposes the state the
// modified MDCD algorithms consult (InBlocking, Ndc).
type Checkpointer struct {
	proc  msg.ProcID
	cfg   Config
	clock *vtime.Clock
	rt    Runtime
	host  Host
	rec   Recorder

	// Stable is the process's stable-storage slot.
	Stable storage.Stable

	// OnResyncRequest, when set, is invoked when the worst-case clock
	// deviation grows past the configured fraction of Δ; the coordinator
	// resynchronizes every node's clock and calls NoteResynced.
	OnResyncRequest func()

	// Blocking, when set, observes every blocking period's length τ(b), in
	// seconds: the computed duration the checkpointer applies, never a clock
	// reading, so it is exact in the simulator and on the wall clock alike.
	Blocking *obs.Histogram

	// OnCommitFailed, when set, is invoked after a durable commit has
	// exhausted its retries: the checkpoint cannot be made stable, so the
	// node must not acknowledge it. The checkpointer stays blocked (held
	// messages are not released, Ndc does not advance) and expects the
	// handler to crash-stop the node — the live middleware kills it and
	// restarts it through hardware recovery. The handler runs in timer
	// context (under the node lock in live mode); it must defer actual
	// teardown to another goroutine. When nil, an exhausted commit is
	// abandoned and the round is skipped, the pre-durability behaviour.
	OnCommitFailed func(error)

	// Pin, when set, names the lowest round a recovery of the assembly can
	// still ask this node for; every timer-driven commit keeps the stable
	// rounds from there (capped at the round it commits) up. Nil keeps the
	// newest two.
	Pin func() uint64

	ndc         uint64        // committed stable checkpoints (local Ndc)
	published   atomic.Uint64 // ndc, for readers on other nodes
	ndcAtResync uint64
	retries     int        // commit retries spent on the current round
	nextLocal   vtime.Time // dCKPT_time: next expiry on the local clock
	inBlocking  bool
	expectDirty bool // the dirty-bit value the in-flight write matches
	running     bool
	timer       seam.Timer // the next createCKPT (zero: none armed)
	block       seam.Timer // the blocking period's end or commit retry
	// createFn and endFn are createCKPT and endBlocking as values, bound
	// once, so arming the two timers of every round allocates nothing.
	createFn, endFn func()

	unacked unackedLog // sent, not yet acknowledged, in send order

	stats CheckpointerStats
}

// CheckpointerStats aggregates protocol activity for overhead reporting. The
// stable store counts the commits and abort-and-replace adjustments
// (Stable.Commits, Stable.Replaces): it outlives a rebuilt checkpointer.
type CheckpointerStats struct {
	// SkippedBusy counts timer expiries ignored because a write was still
	// in flight (configuration pathology; Validate prevents it).
	SkippedBusy uint64
	// CommitRetries counts durable-commit retries after transient backend
	// failures.
	CommitRetries uint64
	// ResyncRequests counts resynchronization requests issued.
	ResyncRequests uint64
	// BlockingTotal accumulates time spent in blocking periods.
	BlockingTotal time.Duration
}

// NewCheckpointer creates a checkpointer for proc. The clock models the
// node's local timer; cfg must validate. A nil rec records nothing.
func NewCheckpointer(proc msg.ProcID, cfg Config, clock *vtime.Clock, rt Runtime, host Host, rec Recorder) (*Checkpointer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Checkpointer{proc: proc, cfg: cfg, clock: clock, rt: rt, host: host, rec: rec}
	c.createFn, c.endFn = c.createCKPT, c.endBlocking
	return c, nil
}

// Ndc returns the stable-storage checkpoint sequence number the MDCD
// algorithms gate on: the count of committed stable checkpoints.
func (c *Checkpointer) Ndc() uint64 { return c.ndc }

// Committed is Ndc for readers that do not hold this node: another node's
// Pin reads it at every commit.
func (c *Checkpointer) Committed() uint64 { return c.published.Load() }

// InBlocking reports whether a blocking period is in progress.
func (c *Checkpointer) InBlocking() bool { return c.inBlocking }

// Stats returns the activity counters.
func (c *Checkpointer) Stats() CheckpointerStats { return c.stats }

// Clock exposes the node's local clock (the coordinator resynchronizes it).
func (c *Checkpointer) Clock() *vtime.Clock { return c.clock }

// Start arms the checkpoint timer at the next multiple of Δ on the local
// clock. Safe at system start (all clocks read ≈0, so every process lands in
// the same tick bucket); after a recovery use StartAt with a common target —
// recomputing the bucket from each node's own skewed clock near a tick
// boundary would misalign the round numbering permanently.
func (c *Checkpointer) Start() {
	local := c.clock.Read(c.rt.Now())
	k := int64(local)/int64(c.cfg.Interval) + 1
	c.StartAt(vtime.Time(k * int64(c.cfg.Interval)))
}

// StartAt arms the checkpoint timer at an explicit local-clock instant. The
// recovery orchestrator passes the same target to every node, keeping the
// tick schedule — and hence the checkpoint round numbering — globally
// aligned across the restart.
func (c *Checkpointer) StartAt(localTarget vtime.Time) {
	c.running = true
	c.nextLocal = localTarget
	c.armTimer()
}

// Stop cancels timers and abandons any in-flight write.
func (c *Checkpointer) Stop() {
	c.running = false
	c.cancel(&c.timer)
	c.cancel(&c.block)
	if c.Stable.InFlight() {
		c.Stable.Abandon()
	}
	c.inBlocking = false
}

// cancel disarms the timer *t names, if any, and forgets it.
func (c *Checkpointer) cancel(t *seam.Timer) {
	if *t != (seam.Timer{}) {
		c.rt.Cancel(*t)
		*t = seam.Timer{}
	}
}

func (c *Checkpointer) armTimer() {
	fireAt := c.clock.WhenReads(c.nextLocal, c.rt.Now())
	c.timer = c.rt.After(fireAt.Sub(c.rt.Now()), c.createFn)
}

// record appends one of the checkpointer's events to the trace, if anything
// records it. A site whose note is formatted checks rec first, so an
// untraced checkpointer neither formats nor boxes.
func (c *Checkpointer) record(kind trace.Kind, ck checkpoint.Kind, note string) {
	if c.rec != nil {
		c.rec(trace.Event{At: c.rt.Now(), Proc: c.proc, Kind: kind, Ckpt: ck, Note: note})
	}
}

// createCKPT implements Figure 5. The dirty bit selects the contents: a
// clean process saves its current state, a potentially contaminated one
// copies its most recent volatile checkpoint (which captured its most recent
// non-contaminated state). The write then rides through a blocking period
// during which the process reads no application messages.
func (c *Checkpointer) createCKPT() {
	if !c.running {
		return
	}
	defer func() {
		// dCKPT_time += Δ; set_timer(createCKPT, dCKPT_time)
		c.nextLocal = c.nextLocal.Add(c.cfg.Interval)
		c.armTimer()
	}()
	if c.Stable.InFlight() {
		c.stats.SkippedBusy++
		return
	}

	dirty := c.host.EffectiveDirty()
	// The contents carry the unacknowledged-message set captured with
	// them — the live set with the current state, the set marked at its
	// establishment with a copied volatile checkpoint — so re-sending is
	// always relative to the restored state.
	if err := c.Stable.Begin(c.chooseContents(dirty)); err != nil {
		// Unreachable given the InFlight guard; surface loudly in traces.
		c.record(trace.StableBegun, 0, "begin failed: "+err.Error())
		return
	}
	c.expectDirty = dirty
	c.retries = 0
	if c.rec != nil {
		c.record(trace.StableBegun, checkpoint.Stable, fmt.Sprintf("dirty=%v", dirty))
	}

	blocking := c.cfg.BlockingPeriod(c.host.EffectiveDirty(), c.elapsedSinceResync())
	c.inBlocking = true
	c.stats.BlockingTotal += blocking
	c.Blocking.Observe(blocking.Seconds())
	if c.rec != nil {
		c.record(trace.BlockStarted, 0, fmt.Sprintf("τ(b)=%v", blocking))
	}
	c.block = c.rt.After(blocking, c.endFn)

	c.maybeRequestResync()
}

// chooseContents names the initial write_disk contents. The original
// protocol always saves the current state — even a potentially contaminated
// one, which is exactly the Figure 4(a) failure of the naive combination; the
// contents' dirty flag records that honestly. The adapted protocol copies
// the most recent volatile checkpoint instead when the process is dirty.
func (c *Checkpointer) chooseContents(dirty bool) checkpoint.Encoder {
	if c.cfg.Variant == Adapted && dirty {
		if v, ok := c.host.StableContents(true); ok {
			return v
		}
		// A dirty process always has a volatile checkpoint (Type-1 or
		// pseudo, taken before contamination); if the protocol is run
		// degenerately without one, fall back to the current state.
	}
	cur, _ := c.host.StableContents(false)
	return cur
}

// NotifyDirtyChanged is the write_disk monitoring hook: if the dirty bit
// changes while the write is in flight (a passed-AT arrived during the
// blocking period), the adapted protocol aborts the copy and replaces the
// checkpoint contents with the current process state.
func (c *Checkpointer) NotifyDirtyChanged(dirty bool) {
	if c.cfg.Variant != Adapted || c.cfg.DisableContentAdjust || !c.inBlocking || !c.Stable.InFlight() {
		return
	}
	if dirty == c.expectDirty {
		return
	}
	replacement, _ := c.host.StableContents(false)
	if err := c.Stable.Replace(replacement); err != nil {
		c.record(trace.StableReplaced, 0, "replace failed: "+err.Error())
		return
	}
	c.expectDirty = dirty
	if c.rec != nil {
		c.record(trace.StableReplaced, checkpoint.Stable, fmt.Sprintf("dirty bit flipped to %v", dirty))
	}
}

// endBlocking commits the write, increments Ndc, and releases held messages.
// A failed durable commit keeps the node blocked: acknowledging (releasing
// held messages and advancing Ndc) a round that never reached the platter
// would break the recovery-line invariant, so the commit is retried with
// capped backoff and, when retries exhaust, the node fail-stops through
// OnCommitFailed instead of acking.
func (c *Checkpointer) endBlocking() {
	c.block = seam.Timer{}
	if c.Stable.InFlight() {
		c.commitStable()
		return
	}
	c.finishBlocking()
}

// commitStable is the single writer of the commit/ack pair: it commits the
// in-flight durable write, advances Ndc, and ends the blocking period, so
// the commit-before-ack ordering lives in exactly one place. On failure it
// defers to commitFailed, which keeps the node blocked.
func (c *Checkpointer) commitStable() {
	round := c.ndc + 1
	if c.Pin != nil {
		c.Stable.SetPin(min(c.Pin(), round))
	}
	if err := c.Stable.Commit(round); err != nil {
		c.commitFailed(err)
		return
	}
	c.ndc++
	c.published.Store(c.ndc)
	if c.rec != nil {
		note := fmt.Sprintf("Ndc=%d", c.ndc)
		if c.retries > 0 {
			note = fmt.Sprintf("Ndc=%d (after %d retries)", c.ndc, c.retries)
		}
		c.record(trace.StableCommitted, checkpoint.Stable, note)
	}
	c.finishBlocking()
}

// finishBlocking ends the blocking period and releases held messages.
func (c *Checkpointer) finishBlocking() {
	c.inBlocking = false
	c.record(trace.BlockEnded, 0, "")
	c.host.ReleaseHeld()
}

// commitFailed handles a durable-commit failure: retry with capped backoff
// while attempts remain, then either hand the node to OnCommitFailed
// (fail-stop without acking) or — with no handler — abandon the round and
// move on, the in-memory-only behaviour.
func (c *Checkpointer) commitFailed(err error) {
	c.record(trace.StableCommitted, 0, "commit failed: "+err.Error())
	if c.retries < commitRetryLimit {
		c.retries++
		c.stats.CommitRetries++
		c.block = c.rt.After(c.retryDelay(c.retries), c.retryCommit)
		return
	}
	if c.OnCommitFailed != nil {
		// Stay blocked: no ack, no Ndc advance, no message release. The
		// handler crash-stops the node; Stop abandons the write.
		c.OnCommitFailed(err)
		return
	}
	c.Stable.Abandon()
	c.finishBlocking()
}

// retryCommit re-attempts the in-flight durable commit.
func (c *Checkpointer) retryCommit() {
	c.block = seam.Timer{}
	if !c.running || !c.Stable.InFlight() {
		return
	}
	c.commitStable()
}

// retryDelay is the backoff before the given (1-based) retry attempt.
func (c *Checkpointer) retryDelay(attempt int) time.Duration {
	return (c.cfg.Interval / 32) << (attempt - 1)
}

func (c *Checkpointer) elapsedSinceResync() time.Duration {
	// τ = Ndc·Δ counted from the last resynchronization; the +1 covers
	// the interval currently completing.
	return time.Duration(c.ndc-c.ndcAtResync+1) * c.cfg.Interval
}

func (c *Checkpointer) maybeRequestResync() {
	if c.OnResyncRequest == nil {
		return
	}
	skew := vtime.WorstCaseSkew(c.cfg.Clock, c.elapsedSinceResync())
	if float64(skew) > resyncFraction*float64(c.cfg.Interval) {
		c.stats.ResyncRequests++
		c.OnResyncRequest()
	}
}

// NoteResynced informs the checkpointer its clock was just resynchronized.
func (c *Checkpointer) NoteResynced() {
	c.ndcAtResync = c.ndc
	c.record(trace.Resynced, 0, "")
}

// AbortCycle abandons an in-flight checkpoint establishment without touching
// the committed checkpoint or the main timer: recovery interrupting a
// blocking period must not let a write capturing a pre-recovery state commit.
func (c *Checkpointer) AbortCycle() {
	c.cancel(&c.block)
	if c.Stable.InFlight() {
		c.Stable.Abandon()
	}
	c.inBlocking = false
}
