package mdcd

import (
	"errors"
	"fmt"

	"github.com/synergy-ft/synergy/internal/checkpoint"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/trace"
)

// ErrNoCheckpoint is returned when a rollback is requested but no checkpoint
// exists to roll back to.
var ErrNoCheckpoint = errors.New("mdcd: no checkpoint to roll back to")

// RestoreFrom rewinds the process to a checkpoint's content: application
// state, counters, validity views and the dirty (or pseudo dirty) bit all
// revert to their captured values. Held messages are discarded (recovery
// flushes the interconnect) and the shadow's suppressed log is truncated to
// entries the restored state has actually produced. The failed/promoted
// flags deliberately survive: role assignment is configuration, not state.
func (p *Process) RestoreFrom(c *checkpoint.Checkpoint) {
	p.State = c.State.Clone()
	p.msgSN = c.MsgSN
	p.sentTo = countsOf(c.SentTo)
	p.recvFrom = countsOf(c.RecvFrom)
	p.validSN = countsOf(c.ValidSN)
	// lastSN high-water marks shrink with the restored views: the restored
	// state has seen nothing beyond its receive counters.
	p.lastSN = counts{}
	p.lastSN[msg.P1Act] = c.ValidSN[msg.P1Act]
	// A restorable state's component-1 influence is covered by its own
	// validity view (checkpoint contents capture validated states).
	p.actInfluence = c.ValidSN[msg.P1Act]
	before := p.EffectiveDirty()
	if p.role == RoleActive && p.cfg.Mode == ModeModified {
		p.pseudoDirty = c.Dirty
		p.recvDirty = false
		p.dirty = true
	} else {
		p.dirty = c.Dirty
	}
	if after := p.EffectiveDirty(); after != before {
		kind := trace.DirtyCleared
		if after {
			kind = trace.DirtySet
		}
		// Trace only: recovery resets the TB side explicitly, so the
		// DirtyChanged hook must not fire here.
		p.record(kind, "restored")
	}
	p.held = nil
	p.deferred = nil // rolled-back applications stay unacknowledged
	if p.role == RoleShadow {
		p.msgLog = keepThroughSeq(p.msgLog, p.sentTo[msg.P2])
		p.extLog = keepThroughSeq(p.extLog, p.sentTo[msg.Device])
	}
}

// RecoverSoftware executes this process's local software-error recovery
// decision: a potentially contaminated process rolls back to its most recent
// volatile checkpoint, a clean one rolls forward (continues from its current
// state). It reports whether a rollback happened and, on rollback, the
// checkpoint restored (whose stored unacknowledged messages the recovery
// orchestrator re-sends).
func (p *Process) RecoverSoftware() (bool, *checkpoint.Checkpoint, error) {
	if p.dirty {
		c, ok := p.Volatile.Latest()
		if !ok {
			return false, nil, fmt.Errorf("%w: %v is dirty", ErrNoCheckpoint, p.id)
		}
		p.RestoreFrom(c)
		p.record(trace.RolledBack, "software recovery")
		return true, c, nil
	}
	p.record(trace.RolledForward, "software recovery")
	return false, nil, nil
}

// Demote terminates the process's participation (P1act after a detected
// software error).
func (p *Process) Demote() {
	p.failed = true
	p.record(trace.TookOver, "demoted")
}

// CommitUpgrade ends guarded operation with the active process accepted: the
// upgrade has run long enough to earn high confidence. The paper describes
// this as the coordination disengaging "in a seamless fashion": all software
// components become high-confidence components, the MDCD protocol goes on
// leave, every dirty bit takes a constant value of zero, and the adapted TB
// algorithm degenerates to the original protocol. For P1act the role becomes
// RolePlain (a plain high-confidence process of component 1); for the shadow
// the escort duty ends (Retire); for P2 the acceptance-test duty ends.
func (p *Process) CommitUpgrade() {
	switch p.role {
	case RoleActive:
		before := p.EffectiveDirty()
		p.role = RolePlain
		p.pseudoDirty, p.recvDirty, p.dirty = false, false, false
		p.noteEffectiveChange(before, "upgrade committed")
	case RoleShadow:
		p.Retire()
	case RolePeer:
		p.setDirty(false)
		p.bumpValid(msg.P1Act, p.lastSN[msg.P1Act])
	}
	p.record(trace.TookOver, "upgrade committed")
}

// Retire ends a shadow's escort duty after a committed upgrade: its log is
// discarded (the active's messages are trusted now) and it stops
// participating.
func (p *Process) Retire() {
	if p.role != RoleShadow || p.promoted {
		return
	}
	p.failed = true
	p.msgLog, p.extLog = nil, nil
	p.held = nil
	p.deferred = nil
}

// SuppressedPending returns the suppressed log entries a takeover would
// re-send: the component-1 stream positions this shadow has produced whose
// delivery it cannot prove. An un-promoted shadow stores them as the
// unacknowledged set of its checkpoints, so a hardware rollback onto a line
// committed before a takeover can still re-send the stream gap between the
// promoted shadow's send counters and P2's restored receive counters. The
// entries carry the clean dirty bit TakeOver's re-send path gives them: the
// shadow is high-confidence.
//
// The result is a transient view of the log, not a copy: it is valid until
// the next suppress, reclaim or restore, which rewrite the log in place.
// TakeOver sends it at once and capture copies it into the checkpoint's own
// buffer; a caller that keeps it must copy it too.
func (p *Process) SuppressedPending() []msg.Message {
	if !p.suppressing() {
		return nil
	}
	// Entries sit in ChanSeq order, and RestoreFrom drops every one above
	// the send counter, so this cut is the whole log.
	n := len(p.msgLog)
	for n > 0 && p.msgLog[n-1].ChanSeq > p.sentTo[msg.P2] {
		n--
	}
	return p.msgLog[:n]
}

// TakeOver promotes the shadow to the active role. Logged messages that the
// restored state has produced are re-sent to P2 (duplicates are suppressed by
// the receiver's ChanSeq dedup); unvalidated external log entries remain
// suppressed. The shadow is high-confidence, so it continues with a clean
// dirty bit.
func (p *Process) TakeOver() {
	if p.role != RoleShadow {
		return
	}
	pending := p.SuppressedPending() // before promotion, which empties it
	p.promoted = true
	p.record(trace.TookOver, "")
	for _, m := range pending {
		m.Ndc = p.env.Ndc()
		p.env.Send(m)
		p.recordMsg(trace.MsgSent, &m, "takeover re-send")
	}
	p.msgLog, p.extLog = nil, nil
}
