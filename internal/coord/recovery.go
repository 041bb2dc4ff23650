package coord

import (
	"errors"
	"fmt"

	"github.com/synergy-ft/synergy/internal/checkpoint"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/tb"
	"github.com/synergy-ft/synergy/internal/trace"
	"github.com/synergy-ft/synergy/internal/vtime"
)

// softwareRecovery runs the MDCD error recovery procedure after a failed
// acceptance test: P1act is demoted, each surviving process locally decides
// between rollback (dirty) and roll-forward (clean), and the shadow takes
// over the active role, re-sending or further suppressing its logged
// messages based on the validity knowledge.
func (s *System) softwareRecovery(detector msg.ProcID) {
	s.holdAll()
	defer s.releaseAll()
	if s.actDemoted || s.failed {
		return
	}
	s.actDemoted = true
	s.rt.Record(trace.Event{At: s.rt.Now(), Proc: detector, Kind: trace.ATFailed, Note: "software error recovery initiated"})

	act, sdw, p2 := s.nodes[msg.P1Act], s.nodes[msg.P1Sdw], s.nodes[msg.P2]
	act.proc.Demote()
	if act.cp != nil {
		act.cp.Stop()
	}
	p2.proc.StopSendingTo(msg.P1Act)
	p2.proc.IgnoreFrom(msg.P1Act)
	sdw.proc.IgnoreFrom(msg.P1Act)
	// In-flight messages predate the recovery decision: a rolled-back
	// receiver must not apply traffic produced from discarded (possibly
	// contaminated) states. Survivors re-send from their unacknowledged
	// sets below, relative to their post-recovery states.
	s.rt.Flush()

	for _, n := range []*node{sdw, p2} {
		if n.down {
			continue // a crashed host rejoins through hardware recovery
		}
		if n.cp != nil {
			// A stable write capturing pre-recovery state must not
			// commit after the rollback decision.
			n.cp.AbortCycle()
			n.cp.DropUnacked(msg.P1Act)
		}
		rolled, restored, err := n.proc.RecoverSoftware()
		if err != nil {
			// A potentially contaminated process with no volatile
			// checkpoint to restore: the naive combination reaches
			// this after a hardware rollback onto a contaminated
			// stable checkpoint.
			s.metrics.UnrecoverableSW++
			s.failf("software recovery: %v", err)
			return
		}
		if rolled {
			n.pending = nil
			if n.cp != nil && n != sdw {
				// Re-sending is relative to the restored state:
				// adopt its stored unacknowledged set. The shadow is
				// excluded — its stored set holds suppressed copies
				// that TakeOver below re-sends from the (already
				// truncated) message log itself.
				n.cp.AdoptUnacked(restored.Unacked)
				n.cp.DropUnacked(msg.P1Act)
			}
		} else {
			// Roll-forward: the aborted blocking period's held
			// messages and deferred events are still valid —
			// process them now.
			n.proc.ReleaseHeld()
			s.flushPending(n)
		}
		if n != sdw {
			// Push the unacknowledged set out again; the flush above
			// discarded any in-flight copies and receivers
			// deduplicate what they already reflect.
			s.resend(n)
		}
	}
	if sdw.cp != nil {
		// The shadow never transmitted, so nothing in its live TB set
		// corresponds to a physical send (a prior hardware recovery may
		// have adopted stored suppressed copies). Clear it: TakeOver's
		// re-sends go through the normal send path and rebuild the set
		// from messages actually on the wire.
		sdw.cp.AdoptUnacked(nil)
	}
	sdw.proc.TakeOver()
	s.metrics.SWRecoveries++
}

// resend pushes a node's unacknowledged set onto the interconnect again.
func (s *System) resend(n *node) {
	if n.cp == nil {
		return
	}
	n.cp.EachUnacked(func(m msg.Message) {
		s.metrics.Resends++
		s.rt.Send(m) // delivered later: the set cannot change meanwhile
	})
}

// CommitUpgrade ends guarded operation with the upgraded version accepted:
// sufficient onboard execution time has earned it high confidence. The MDCD
// protocol goes on leave (all dirty bits constant zero, the shadow retires),
// and the adapted TB protocol becomes equivalent to the original — the
// seamless disengagement the paper describes at the end of Section 4.2. It
// reports false if guarded operation already ended (takeover or an earlier
// commit).
func (s *System) CommitUpgrade() bool {
	s.holdAll()
	defer s.releaseAll()
	if s.actDemoted || s.upgradeDone || !s.cfg.Scheme.Guarded() {
		return false
	}
	s.upgradeDone = true
	act, sdw, p2 := s.nodes[msg.P1Act], s.nodes[msg.P1Sdw], s.nodes[msg.P2]
	act.proc.CommitUpgrade()
	sdw.proc.CommitUpgrade()
	if sdw.cp != nil {
		sdw.cp.Stop()
	}
	sdw.pending = nil
	p2.proc.CommitUpgrade()
	// The retired shadow no longer acknowledges anything.
	p2.proc.StopSendingTo(msg.P1Sdw)
	if p2.cp != nil {
		p2.cp.DropUnacked(msg.P1Sdw)
	}
	return true
}

// reapplyRoleState re-imposes the recovery orchestration's role
// configuration on a rebuilt node. Role assignment is configuration, not
// checkpointed state (mdcd.RestoreFrom deliberately leaves the
// failed/promoted flags alone), so a takeover or committed upgrade that
// happened while the node was up must be replayed onto the fresh process —
// otherwise a rebooted shadow comes back suppressing the sends it now owns as
// the active, and a rebooted P2 resumes broadcasting to the demoted P1act.
// Runs with the restored unacknowledged set loaded: messages addressed to a
// retired role are dropped the way the original orchestration dropped them.
func (s *System) reapplyRoleState(n *node) {
	drop := func(to msg.ProcID) {
		if n.cp != nil { // a scheme without TB keeps no unacknowledged set
			n.cp.DropUnacked(to)
		}
	}
	if s.actDemoted {
		switch n.id {
		case msg.P1Sdw:
			n.proc.TakeOver()
			n.proc.IgnoreFrom(msg.P1Act)
			drop(msg.P1Act)
		case msg.P2:
			n.proc.StopSendingTo(msg.P1Act)
			n.proc.IgnoreFrom(msg.P1Act)
			drop(msg.P1Act)
		}
	}
	if s.upgradeDone {
		n.proc.CommitUpgrade()
		if n.id == msg.P2 {
			n.proc.StopSendingTo(msg.P1Sdw)
			drop(msg.P1Sdw)
		}
	}
}

// UpgradeCommitted reports whether guarded operation ended in acceptance.
func (s *System) UpgradeCommitted() bool {
	s.rt.Hold(s.order[0].id)
	defer s.rt.Release(s.order[0].id)
	return s.upgradeDone
}

// InjectHardwareFault crashes the given node and runs hardware error
// recovery immediately (a crash-restart with negligible repair time: the
// host never leaves the interconnect). A node that is already down stays
// down and the survivors recover among themselves. For a fail-stop period
// with a real repair delay, use CrashNode followed by RepairNode.
func (s *System) InjectHardwareFault(node msg.NodeID) error {
	s.holdAll()
	defer s.releaseAll()
	if n := s.node(msg.ProcID(node)); n != nil && !n.down {
		s.crash(n, "")
	}
	return s.recoverLine()
}

// CrashNode marks a node failed: its volatile contents are lost, its
// checkpoint timers stop, and traffic to and from it is dropped until
// RepairNode. The survivors keep computing and committing stable
// checkpoints, and keep every round from the crashed node's newest up, so
// the eventual common recovery round is there however long the repair
// takes. It reports false if the node was already down.
func (s *System) CrashNode(node msg.NodeID) bool {
	n := s.node(msg.ProcID(node))
	if n == nil {
		return true // hosts no process in this scheme
	}
	s.rt.Hold(n.id)
	defer s.rt.Release(n.id)
	if n.down {
		return false
	}
	s.takeDown(n, "")
	return true
}

// commitFailed is a checkpointer's OnCommitFailed, reached through
// Runtime.Recover: the checkpointer stays blocked on a round it never
// acknowledged, so no peer depends on it, and the node fail-stops.
func (s *System) commitFailed(n *node, cause error) {
	s.holdAll()
	defer s.releaseAll()
	if !n.down && !s.failed {
		s.storageFailed(n, 0, cause)
	}
}

// storageFailed handles, with every node held, a node whose stable storage
// stopped taking writes: a commit that exhausted its retries (round 0) or a
// rollback to round it refused. Where the runtime can replace a host that is
// the node's failure, not the system's — it fail-stops, owing its disk the
// refused truncation, and true is returned.
func (s *System) storageFailed(n *node, round uint64, cause error) bool {
	if !s.rt.FailStop(n.id, cause) {
		s.failf("stable storage of %v: %v", n.id, cause)
		return false
	}
	if round > 0 && (n.truncAbove == 0 || round < n.truncAbove) {
		n.truncAbove = round
	}
	s.takeDown(n, "fail-stop: "+cause.Error())
	return true
}

// takeDown crashes a held node and takes its host off the interconnect.
func (s *System) takeDown(n *node, note string) {
	n.down = true
	s.crash(n, note)
	s.rt.Down(n.id)
}

// crash loses a held node's volatile contents and stops its timers.
func (s *System) crash(n *node, note string) {
	n.proc.Volatile.Crash()
	if n.cp != nil {
		n.cp.Stop()
	}
	n.pending = nil
	s.rt.Record(trace.Event{At: s.rt.Now(), Proc: n.id, Kind: trace.NodeCrashed, Note: note})
}

// RepairNode brings a crashed node back, its memory intact but for the
// volatile contents the crash lost, and runs hardware error recovery:
// in-flight messages are discarded, every process rolls back to the stable
// checkpoint line, and the unacknowledged messages saved in those
// checkpoints are re-sent. The per-process rollback distance (computation
// undone, in seconds — including survivor work discarded because of the
// downtime) is recorded in the metrics.
func (s *System) RepairNode(node msg.NodeID) error { return s.rejoin(node, false) }

// RebootNode is RepairNode for a host that kept only its committed stable
// rounds: the node is built afresh over them (see attach), and the roles the
// orchestration assigned since assembly are re-imposed before it rejoins the
// recovery line. A failed reboot leaves the node down and the survivors
// untouched; the caller may retry, except after ErrDemoted.
func (s *System) RebootNode(node msg.NodeID) error { return s.rejoin(node, true) }

// ErrDemoted refuses to reboot P1act after a takeover: a fresh process would
// come back as the active.
var ErrDemoted = errors.New("coord: P1act was demoted by software recovery")

func (s *System) rejoin(node msg.NodeID, rebuild bool) error {
	s.holdAll()
	defer s.releaseAll()
	if s.failed {
		return errors.New("coord: system already failed")
	}
	n := s.node(msg.ProcID(node))
	if rebuild && (n == nil || !n.down) {
		return fmt.Errorf("coord: node %d is not down", node)
	}
	if rebuild && n.id == msg.P1Act && s.actDemoted {
		return ErrDemoted
	}
	if n != nil && n.down {
		proc, cp := n.proc, n.cp
		if err := s.bringUp(n, rebuild); err != nil {
			// The old incarnation stands until a reboot lands: the
			// survivors keep pinning the round it last committed.
			s.rt.Down(n.id)
			n.proc, n.cp = proc, cp
			return err
		}
		if rebuild {
			n.retire(proc, cp)
		}
		n.down = false
	}
	return s.recoverLine()
}

// bringUp returns a down node's host (every node held), rebuilt from its
// committed rounds alone when rebuild is set.
func (s *System) bringUp(n *node, rebuild bool) error {
	if rebuild {
		old := n.cp
		if err := s.buildNode(n); err != nil {
			return err
		}
		if old != nil {
			n.cp.Stable = old.Stable // committed rounds outlive memory
		}
	}
	if err := s.attach(n, rebuild); err != nil {
		return err
	}
	err := s.rt.Up(n.id)
	if err == nil && rebuild {
		s.reapplyRoleState(n)
	}
	return err
}

// attach gives a held node's store its host's disk (the runtime's Attach),
// discharges a truncation the node owes and, with resume, restores the
// process from the newest round that survives. It runs at assembly and
// whenever the node rejoins.
func (s *System) attach(n *node, resume bool) error {
	if n.cp == nil {
		return nil
	}
	if err := s.rt.Attach(n.id, &n.cp.Stable); err != nil {
		return err
	}
	if n.truncAbove > 0 {
		if err := n.cp.Stable.TruncateAbove(n.truncAbove); err != nil {
			return fmt.Errorf("coord: discard stale rounds for %v: %w", n.id, err)
		}
		n.truncAbove = 0
	}
	if !resume || n.cp.Stable.LatestRound() == 0 {
		return nil
	}
	restored, err := n.cp.ResumeFromStable()
	if err != nil {
		return fmt.Errorf("coord: resume %v from stable: %w", n.id, err)
	}
	n.proc.RestoreFrom(restored)
	return nil
}

// recoverLine is hardware error recovery proper, with every node held:
// discard in-flight traffic, roll every live process back to the common
// stable round, re-send the saved unacknowledged sets, and restart the
// checkpoint timers on one tick. Down and demoted nodes sit out.
func (s *System) recoverLine() error {
	if s.failed {
		return errors.New("coord: system already failed")
	}
	s.metrics.HWFaults++
	now := s.rt.Now()
	s.rt.Flush()

	// Every process rolls back to the same checkpoint round: the highest
	// round all live processes have committed. Stable storage retains the
	// previous round precisely so a fault inside the staggered-commit
	// window still finds a complete, consistent line.
	round := s.recoveryRound()

	for _, n := range s.order {
		if n.proc.Failed() || n.down {
			continue
		}
		if n.cp == nil {
			// MDCD alone offers no hardware fault tolerance: the
			// whole computation restarts from genesis.
			s.restoreGenesis(n)
			continue
		}
		// Timer-based schemes roll back to the globally agreed round;
		// write-through checkpoints follow each process's own
		// validation cadence, so each restores its latest (part of why
		// the paper rejects the variant).
		procRound := round
		if s.cfg.Scheme == WriteThrough {
			procRound = n.cp.Stable.LatestRound()
		}
		restored, err := n.cp.PrepareRecoveryAt(procRound)
		if errors.Is(err, tb.ErrNoStableCheckpoint) {
			// A fault before the first complete round: genesis.
			n.cp.Stop()
			s.restoreGenesis(n)
			continue
		}
		if err != nil {
			// The node's stable storage rejected the rollback.
			if s.storageFailed(n, procRound, err) {
				continue
			}
			return err
		}
		n.proc.RestoreFrom(restored)
		// Volatile checkpoints newer than the restored state are
		// invalid rollback targets; drop them everywhere. A dirty
		// restored state with no volatile checkpoint (the naive
		// combination) leaves a later software error unrecoverable.
		n.proc.Volatile.Crash()
		n.pending = nil
		s.rolledBack(n, now.Sub(restored.TakenAt).Seconds(), "hardware recovery")
	}

	// Re-send every unacknowledged message saved in the restored
	// checkpoints; receivers deduplicate anything they already reflect.
	for _, n := range s.order {
		if n.proc.Failed() || n.down {
			continue
		}
		if n.id == msg.P1Sdw && !n.proc.Promoted() {
			// An un-promoted shadow's restored set holds suppressed
			// copies of the active's stream: insurance for a later
			// takeover, not live traffic. Transmitting them would break
			// suppression and race the active's own re-sends.
			continue
		}
		s.resend(n)
	}

	// Restart the checkpoint timers at one common tick: each node's next
	// expiry is the same local-clock target, two intervals out, so the
	// skewed clocks cannot land in different tick buckets and shear the
	// round numbering (the +2 keeps the target strictly ahead of every
	// clock despite deviation).
	if s.cfg.Scheme.UsesTBTimers() {
		ival := int64(s.cfg.CheckpointInterval)
		target := vtime.Time((int64(now)/ival + 2) * ival)
		for _, n := range s.order {
			if n.cp != nil && !n.proc.Failed() && !n.down {
				n.cp.StartAt(target)
			}
		}
	}
	return nil
}

// recoveryRound returns the highest checkpoint round every live process has
// committed (0 when some process has not completed a round yet).
func (s *System) recoveryRound() uint64 {
	if r := s.lowestRound(nil, true); r != noRound {
		return r
	}
	return 0
}

// noRound is lowestRound's answer when no node constrains the round.
const noRound = ^uint64(0)

// lowestRound returns the lowest round committed by the nodes with stable
// storage that are not demoted or retired, leaving out skip and, when upOnly,
// the crashed ones. A crashed node still counts otherwise: it rejoins at
// that round. It reads only the published rounds and what changes with every
// node held, so a node holding just itself may call it (its checkpointer's
// Pin does).
func (s *System) lowestRound(skip *node, upOnly bool) uint64 {
	round := noRound
	for _, n := range s.order {
		if n == skip || n.cp == nil || n.proc.Failed() || upOnly && n.down {
			continue
		}
		round = min(round, n.cp.Committed())
	}
	return round
}

// restoreGenesis rewinds a process to the initial state (no stable
// checkpoint exists). The rollback distance is the whole computation so far.
func (s *System) restoreGenesis(n *node) {
	s.metrics.UnrecoverableHW++
	n.proc.RestoreFrom(checkpoint.New(checkpoint.Stable, n.id))
	n.proc.Volatile.Crash()
	n.pending = nil
	s.rolledBack(n, s.rt.Now().Seconds(), "genesis (no stable checkpoint)")
}

// rolledBack records one process's rollback distance.
func (s *System) rolledBack(n *node, dist float64, note string) {
	s.metrics.RollbackDistance.Add(dist)
	s.metrics.RollbackByProc[n.id].Add(dist)
	s.rt.Record(trace.Event{At: s.rt.Now(), Proc: n.id, Kind: trace.RolledBack, Note: note})
}
