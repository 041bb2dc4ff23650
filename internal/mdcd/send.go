package mdcd

import (
	"github.com/synergy-ft/synergy/internal/checkpoint"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/trace"
)

// skipDests tracks destinations a process must stop sending to (a demoted
// P1act no longer receives the peer's broadcasts).
func (p *Process) skip(dst msg.ProcID) bool {
	return p.skipSet != nil && p.skipSet[dst]
}

// StopSendingTo removes dst from the process's destination set. The recovery
// orchestrator calls it when a process is demoted.
func (p *Process) StopSendingTo(dst msg.ProcID) {
	if p.skipSet == nil {
		p.skipSet = make(map[msg.ProcID]bool)
	}
	p.skipSet[dst] = true
}

// EmitInternal lets the application emit one internal message carrying the
// process's current computation result, running the role's containment
// algorithm from Appendix A.
func (p *Process) EmitInternal() {
	if p.failed {
		return
	}
	payload := p.State.Output()
	switch {
	case p.role == RoleActive:
		p.emitInternalActive(payload)
	case p.role == RoleShadow && !p.promoted:
		p.suppress(msg.Internal, msg.P2, payload)
	case p.role == RoleShadow:
		// Promoted shadow: the high-confidence active of component 1.
		p.sendApp(msg.Internal, msg.P2, payload)
	case p.role == RolePlain:
		p.sendApp(msg.Internal, p.counterpart(), payload)
	default:
		p.emitInternalPeer(payload)
	}
}

// counterpart returns the plain process's peer.
func (p *Process) counterpart() msg.ProcID {
	if p.id == msg.P2 {
		return msg.P1Act
	}
	return msg.P2
}

// emitInternalActive implements P1act's outgoing-internal branch: the message
// carries dirty_bit (constantly one), and under the modified protocol a
// pseudo checkpoint is established before the first internal send since the
// last validation, after which the pseudo dirty bit is set.
func (p *Process) emitInternalActive(payload msg.Payload) {
	if p.cfg.Mode == ModeModified && !p.pseudoDirty {
		// Establish the pseudo checkpoint only if no older baseline is
		// already in place: replacing a reception-contamination Type-1
		// with a later snapshot would make the baseline contaminated.
		if !p.EffectiveDirty() {
			p.takeVolatile(checkpoint.Pseudo)
		}
		p.setPseudoDirty(true)
	}
	p.sendApp(msg.Internal, msg.P2, payload)
}

// emitInternalPeer implements P2's outgoing-internal branch: one logical
// message, with the dirty bit piggybacked, broadcast to both component-1
// processes.
func (p *Process) emitInternalPeer(payload msg.Payload) {
	p.msgSN++
	for _, dst := range []msg.ProcID{msg.P1Act, msg.P1Sdw} {
		if p.skip(dst) {
			continue
		}
		p.sentTo[dst]++
		m := msg.Message{
			Kind:     msg.Internal,
			From:     p.id,
			To:       dst,
			SN:       p.msgSN,
			ChanSeq:  p.sentTo[dst],
			DirtyBit: p.dirty,
			Ndc:      p.env.Ndc(),
			ValidSN:  p.influenceHighWater(),
			Payload:  payload,
		}
		p.env.Send(m)
		p.env.Record(trace.Event{At: p.env.Now(), Proc: p.id, Kind: trace.MsgSent, Msg: m})
	}
	p.stats.InternalSent++
}

// EmitExternal lets the application emit one external message (to devices),
// validated by an acceptance test whenever the sender is potentially
// contaminated.
func (p *Process) EmitExternal() {
	if p.failed {
		return
	}
	payload := p.State.Output()
	switch {
	case p.role == RoleShadow && !p.promoted:
		p.suppress(msg.External, msg.Device, payload)
	case p.role == RoleActive || p.dirty:
		p.emitExternalGuarded(payload)
	default:
		// Outgoing message from a clean state: no AT required.
		p.sendApp(msg.External, msg.Device, payload)
	}
}

// emitExternalGuarded implements the AT branch shared by P1act (whose state
// is invariably potentially contaminated during guarded operation) and a
// dirty P2: validate, then emit and broadcast "passed AT", or trigger
// software error recovery on failure.
func (p *Process) emitExternalGuarded(payload msg.Payload) {
	p.stats.ATsRun++
	p.Obs.ATsRun.Inc()
	if !p.cfg.Test.Check(payload, p.env.Rand()) {
		p.stats.ATsFailed++
		p.Obs.ATsFailed.Inc()
		p.env.Record(trace.Event{At: p.env.Now(), Proc: p.id, Kind: trace.ATFailed})
		p.env.RequestErrorRecovery(p.id)
		return
	}
	p.env.Record(trace.Event{At: p.env.Now(), Proc: p.id, Kind: trace.ATPassed})
	wasDirty := p.EffectiveDirty()
	p.applyValidation()
	p.sendApp(msg.External, msg.Device, payload)
	// Update validity views: the AT validates the sender's state, hence
	// all its prior messages and everything it received before the test.
	own := msg.Component(p.id)
	p.bumpValid(own, p.msgSN)
	other := msg.P2
	if own == msg.P2 {
		other = msg.P1Act
	}
	p.bumpValid(other, p.lastSN[other])
	p.broadcastPassedAT()
	if p.Validated != nil {
		p.Validated(true, wasDirty)
	}
	// The validation (and any write-through commit the hook performed)
	// made the applied messages restorable; release their acks.
	p.flushDeferredAcks()
}

// broadcastPassedAT notifies the other processes of a successful AT. The
// notification carries the last valid SN of the component-1 stream (P1act's
// own msg_SN, or P2's record msg_SN_Pact1) and the sender's Ndc.
func (p *Process) broadcastPassedAT() {
	validSN := p.msgSN
	if msg.Component(p.id) == msg.P2 {
		validSN = p.lastSN[msg.P1Act]
	}
	for _, dst := range msg.Processes() {
		if dst == p.id || p.skip(dst) {
			continue
		}
		m := msg.Message{
			Kind:    msg.PassedAT,
			From:    p.id,
			To:      dst,
			ValidSN: validSN,
			Ndc:     p.env.Ndc(),
		}
		p.env.Send(m)
	}
}

// applyValidation performs the knowledge updates of a successful own AT:
// the pseudo dirty bit (P1act, modified mode) or the dirty bit is reset, and
// under the original protocol a Type-2 checkpoint is established right after
// the potentially contaminated state is validated.
func (p *Process) applyValidation() {
	if p.role == RoleActive {
		if p.cfg.Mode == ModeModified {
			p.setPseudoDirty(false)
			p.setRecvDirty(false)
		}
		// Original mode: P1act is exempt from checkpointing and its
		// dirty bit is constant.
		return
	}
	if p.dirty {
		p.setDirty(false)
		if p.cfg.Mode == ModeOriginal {
			p.takeVolatile(checkpoint.Type2)
		}
	}
}

// sendApp emits one application-purpose message to a single destination,
// maintaining the SN and per-channel counters.
func (p *Process) sendApp(kind msg.Kind, dst msg.ProcID, payload msg.Payload) {
	p.msgSN++
	p.sentTo[dst]++
	m := msg.Message{
		Kind:     kind,
		From:     p.id,
		To:       dst,
		SN:       p.msgSN,
		ChanSeq:  p.sentTo[dst],
		DirtyBit: p.dirty,
		Ndc:      p.env.Ndc(),
		ValidSN:  p.influenceHighWater(),
		Payload:  payload,
	}
	p.env.Send(m)
	p.env.Record(trace.Event{At: p.env.Now(), Proc: p.id, Kind: trace.MsgSent, Msg: m})
	if kind == msg.External {
		p.stats.ExternalSent++
	} else {
		p.stats.InternalSent++
	}
}

// suppress implements the shadow's outgoing branch: the message is logged,
// not transmitted, and the counters advance in lockstep with the active
// process so the log entries align with the active's stream.
func (p *Process) suppress(kind msg.Kind, dst msg.ProcID, payload msg.Payload) {
	p.msgSN++
	p.sentTo[dst]++
	m := msg.Message{
		Kind:     kind,
		From:     p.id,
		To:       dst,
		SN:       p.msgSN,
		ChanSeq:  p.sentTo[dst],
		DirtyBit: p.dirty,
		Payload:  payload,
	}
	p.stats.Suppressed++
	p.env.Record(trace.Event{At: p.env.Now(), Proc: p.id, Kind: trace.MsgSent, Msg: m, Note: "suppressed"})
	// Logged as a takeover sends it: from the high-confidence shadow.
	m.DirtyBit = false
	if dst == msg.P2 {
		p.msgLog = append(p.msgLog, m)
	} else {
		p.extLog = append(p.extLog, m)
	}
}

// influenceHighWater is the component-1 stream position this process's
// state reflects: its own SN counter when it embodies component 1,
// otherwise the accumulated influence of applied messages.
func (p *Process) influenceHighWater() uint64 {
	if msg.Component(p.id) == msg.P1Act {
		return p.msgSN
	}
	return p.actInfluence
}

// bumpValid raises a validity view monotonically.
func (p *Process) bumpValid(origin msg.ProcID, sn uint64) {
	if sn > p.validSN[origin] {
		p.validSN[origin] = sn
	}
}
