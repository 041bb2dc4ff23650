package mdcd

import (
	"errors"
	"fmt"
	"maps"

	"github.com/synergy-ft/synergy/internal/checkpoint"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/trace"
)

// ErrNoCheckpoint is returned when a rollback is requested but no checkpoint
// exists to roll back to.
var ErrNoCheckpoint = errors.New("mdcd: no checkpoint to roll back to")

// Snapshot captures the process's current state and message bookkeeping as a
// checkpoint of the given kind. The Dirty field records the effective dirty
// bit (pseudo dirty bit for P1act under the modified protocol). Nothing the
// process does afterwards changes the result, so it can be stored as is.
func (p *Process) Snapshot(kind checkpoint.Kind) *checkpoint.Checkpoint {
	c := &checkpoint.Checkpoint{
		Kind:     kind,
		Proc:     p.id,
		TakenAt:  p.env.Now(),
		Ndc:      p.env.Ndc(),
		Dirty:    p.EffectiveDirty(),
		MsgSN:    p.msgSN,
		State:    p.State.Clone(),
		SentTo:   maps.Clone(p.sentTo),
		RecvFrom: maps.Clone(p.recvFrom),
		ValidSN:  maps.Clone(p.validSN),
	}
	if p.UnackedProvider != nil {
		c.Unacked = p.UnackedProvider()
	}
	return c
}

// takeVolatile establishes a volatile-storage checkpoint of the given kind.
func (p *Process) takeVolatile(kind checkpoint.Kind) {
	p.Volatile.Save(p.Snapshot(kind))
	p.Obs.ckptCounter(kind).Inc()
	p.env.Record(trace.Event{At: p.env.Now(), Proc: p.id, Kind: trace.CheckpointTaken, Ckpt: kind})
}

// RestoreFrom rewinds the process to a checkpoint's content: application
// state, counters, validity views and the dirty (or pseudo dirty) bit all
// revert to their captured values. Held messages are discarded (recovery
// flushes the interconnect) and the shadow's suppressed log is truncated to
// entries the restored state has actually produced. The failed/promoted
// flags deliberately survive: role assignment is configuration, not state.
func (p *Process) RestoreFrom(c *checkpoint.Checkpoint) {
	p.State = c.State.Clone()
	p.msgSN = c.MsgSN
	p.sentTo = make(map[msg.ProcID]uint64, len(c.SentTo))
	maps.Copy(p.sentTo, c.SentTo)
	p.recvFrom = make(map[msg.ProcID]uint64, len(c.RecvFrom))
	maps.Copy(p.recvFrom, c.RecvFrom)
	p.validSN = make(map[msg.ProcID]uint64, len(c.ValidSN))
	maps.Copy(p.validSN, c.ValidSN)
	// lastSN high-water marks shrink with the restored views: the restored
	// state has seen nothing beyond its receive counters.
	p.lastSN = make(map[msg.ProcID]uint64)
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
		p.env.Record(trace.Event{At: p.env.Now(), Proc: p.id, Kind: kind, Note: "restored"})
	}
	p.held = nil
	p.deferred = nil // rolled-back applications stay unacknowledged
	if p.role == RoleShadow {
		produced := func(m msg.Message) bool { return m.ChanSeq <= p.sentTo[m.To] }
		p.msgLog = filterLog(p.msgLog, produced)
		p.extLog = filterLog(p.extLog, produced)
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
		p.env.Record(trace.Event{At: p.env.Now(), Proc: p.id, Kind: trace.RolledBack, Note: "software recovery"})
		return true, c, nil
	}
	p.env.Record(trace.Event{At: p.env.Now(), Proc: p.id, Kind: trace.RolledForward, Note: "software recovery"})
	return false, nil, nil
}

// Demote terminates the process's participation (P1act after a detected
// software error).
func (p *Process) Demote() {
	p.failed = true
	p.env.Record(trace.Event{At: p.env.Now(), Proc: p.id, Kind: trace.TookOver, Note: "demoted"})
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
	p.env.Record(trace.Event{At: p.env.Now(), Proc: p.id, Kind: trace.TookOver, Note: "upgrade committed"})
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
// The result is a view of the log, not a copy. It stays what it was when
// taken, for as long as anyone holds it, because the log never rewrites an
// entry (filterLog); its capacity is clipped, and no holder writes into it.
func (p *Process) SuppressedPending() []msg.Message {
	if p.role != RoleShadow || p.promoted {
		return nil
	}
	// Entries sit in ChanSeq order, and RestoreFrom drops every one above
	// the send counter, so this cut is the whole log.
	n := len(p.msgLog)
	for n > 0 && p.msgLog[n-1].ChanSeq > p.sentTo[msg.P2] {
		n--
	}
	if n == 0 {
		return nil
	}
	return p.msgLog[:n:n]
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
	p.env.Record(trace.Event{At: p.env.Now(), Proc: p.id, Kind: trace.TookOver})
	for _, m := range pending {
		m.Ndc = p.env.Ndc()
		p.env.Send(m)
		p.env.Record(trace.Event{At: p.env.Now(), Proc: p.id, Kind: trace.MsgSent, Msg: m, Note: "takeover re-send"})
	}
	p.msgLog, p.extLog = nil, nil
}
