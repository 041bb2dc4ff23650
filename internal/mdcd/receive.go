package mdcd

import (
	"sort"

	"github.com/synergy-ft/synergy/internal/checkpoint"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/trace"
)

// IgnoreFrom makes the process drop all future messages from the given
// origin. The recovery orchestrator uses it to shield survivors from the
// in-flight traffic of a demoted P1act.
func (p *Process) IgnoreFrom(origin msg.ProcID) { p.ignores.add(origin) }

// Receive handles one delivered message. During a TB blocking period,
// application-purpose messages are held and not passed to the application;
// passed-AT notifications are monitored (adapted protocol) or held too
// (original TB blocks all messages — the naive-combination baseline).
func (p *Process) Receive(m msg.Message) {
	if p.failed || p.ignores.has(m.From) {
		return
	}
	switch m.Kind {
	case msg.PassedAT:
		if p.cfg.HoldPassedATInBlocking && p.env.InBlocking() {
			p.hold(m)
			return
		}
		p.handlePassedAT(m)
	case msg.Internal:
		if p.env.InBlocking() {
			p.hold(m)
			return
		}
		p.consumeApp(m)
	default:
		// Acks are consumed by the TB checkpointer; external messages
		// never arrive at a process.
	}
}

// ReleaseHeld processes the messages held during a blocking period, in
// arrival order. The TB checkpointer calls it when the blocking period ends.
func (p *Process) ReleaseHeld() {
	held := p.held
	p.held = nil
	for _, m := range held {
		if p.failed {
			return
		}
		if p.ignores.has(m.From) {
			continue
		}
		if m.Kind == msg.PassedAT {
			p.handlePassedAT(m)
			continue
		}
		p.consumeApp(m)
	}
}

// HeldCount returns the number of messages currently held.
func (p *Process) HeldCount() int { return len(p.held) }

func (p *Process) hold(m msg.Message) {
	p.held = append(p.held, m)
	p.stats.Held++
}

// handlePassedAT implements the incoming "passed AT" branches of the three
// algorithms. Under the modified protocol the knowledge update is accepted
// only when the piggybacked stable-checkpoint sequence number matches the
// local one, so a notification from a process that has already completed its
// stable checkpoint establishment cannot wrongly adjust checkpoint contents.
func (p *Process) handlePassedAT(m msg.Message) {
	// The Ndc gate is a during-blocking rule (Section 3: "during the
	// blocking period ... the dirty bit will be reset if and only if the
	// piggybacked Ndc matches"): a notification from a process in a
	// different checkpoint round must not adjust the in-flight write's
	// contents. Dropping it outright, however, discards true validation
	// knowledge and lets the processes' confidence epochs drift apart
	// until their checkpoint baselines disagree; the mismatched
	// notification is therefore deferred past the blocking period, where
	// accepting it is safe (it can only influence future checkpoints).
	if p.cfg.GateOnNdc && p.env.InBlocking() && m.Ndc != p.env.Ndc() {
		p.stats.RejectedNdc++
		p.hold(m)
		p.recordMsg(trace.MsgDelivered, &m, "passed_AT deferred: Ndc mismatch during blocking")
		return
	}
	// VRact update: the component-1 messages up to ValidSN are now known
	// valid. The shadow reclaims the corresponding suppressed log entries.
	p.bumpValid(msg.P1Act, m.ValidSN)
	if p.role == RoleShadow && !p.promoted {
		p.reclaimLog(m.ValidSN)
	}
	// A notification from P2 also validates P2's own prior messages; one
	// from P1act validates our own state transitively, and (FIFO) every
	// message P2 sent before its AT has already arrived.
	if msg.Component(m.From) == msg.P2 {
		p.bumpValid(msg.P2, p.lastSN[msg.P2])
	}
	// Staleness guard: the dirty bit may only be reset by a validation
	// covering everything this state reflects of the component-1 stream.
	// The direct act→shadow notification channel is not FIFO-ordered with
	// the transitive act→P2→shadow contamination path, so a notification
	// issued before a fault activation could otherwise launder later
	// contamination into a "clean" baseline.
	if m.ValidSN < p.actInfluence {
		p.stats.RejectedStale++
		p.recordMsg(trace.MsgDelivered, &m, "passed_AT ignored for dirty bit: stale coverage")
		return
	}
	wasDirty := p.EffectiveDirty()
	p.applyValidation()
	p.recordMsg(trace.MsgDelivered, &m, "")
	if p.Validated != nil {
		p.Validated(false, wasDirty)
	}
	p.flushDeferredAcks()
}

// consumeApp implements application_msg_reception with its role-specific
// prelude: a Type-1 checkpoint is established immediately before the state
// becomes potentially contaminated (first dirty message while clean).
func (p *Process) consumeApp(m msg.Message) {
	comp := msg.Component(m.From)
	if m.ChanSeq <= p.recvFrom[comp] {
		// Duplicate from a post-recovery re-send; ack again so the
		// sender clears its unacknowledged slot, but do not re-apply.
		p.stats.Duplicates++
		p.ack(m)
		return
	}
	if m.DirtyBit && !p.EffectiveDirty() {
		// A Type-1 checkpoint captures the last non-contaminated state
		// immediately before it reflects a potentially contaminated
		// message — for every role, including P1act's reception side.
		p.takeVolatile(checkpoint.Type1)
		if p.role == RoleActive && p.cfg.Mode == ModeModified {
			p.setRecvDirty(true)
		} else {
			p.setDirty(true)
		}
	}
	p.recvFrom[comp] = m.ChanSeq
	if m.SN > p.lastSN[comp] {
		p.lastSN[comp] = m.SN
	}
	// Track the component-1 influence this state now reflects.
	influence := m.ValidSN
	if comp == msg.P1Act {
		influence = m.SN
	}
	if influence > p.actInfluence {
		p.actInfluence = influence
	}
	p.State.ApplyMessage(m.Payload)
	p.ack(m)
	p.recordMsg(trace.MsgDelivered, &m, "")
}

// ack acknowledges an application-purpose message; the sender's TB
// checkpointer clears the corresponding unacknowledged-log slot.
//
// An acknowledgement is a durability statement: the sender drops the message
// from the log recovery re-sends from. A message applied while the state is
// potentially contaminated is NOT yet part of this process's restorable
// state (the latest volatile checkpoint predates it), so its acknowledgement
// is deferred until the contaminated epoch is validated; a rollback discards
// the deferred acks, leaving the messages in the sender's unacknowledged log
// for re-delivery. The original TB protocol never needs this because its
// checkpoint contents are always the current state; choosing volatile-
// checkpoint contents makes it necessary.
func (p *Process) ack(m msg.Message) {
	out := msg.Message{Kind: msg.Ack, From: p.id, To: m.From, AckSN: m.ChanSeq}
	if p.EffectiveDirty() {
		p.deferred = append(p.deferred, out)
		return
	}
	p.env.Send(out)
}

// flushDeferredAcks releases acknowledgements held during a contaminated
// epoch, once a validation confirms the applied messages are part of the
// process's restorable state. The buffer is kept for the next contaminated
// epoch; Send never calls back into the process, so nothing appends to it
// while it drains.
func (p *Process) flushDeferredAcks() {
	for _, a := range p.deferred {
		p.env.Send(a)
	}
	p.deferred = p.deferred[:0]
}

// reclaimLog drops suppressed log entries covered by the validity horizon:
// their equivalents from P1act are known valid, so they will never need to
// be re-sent (memory_reclamation in Figure 9).
func (p *Process) reclaimLog(validSN uint64) {
	p.msgLog = dropThroughSN(p.msgLog, validSN)
	p.extLog = dropThroughSN(p.extLog, validSN)
}

// dropThroughSN drops log's prefix of entries with SN at most sn, moving the
// survivors to the front of the backing array, so the appends after a
// reclaim reuse the memory it frees. A shadow log ascends in SN and in
// ChanSeq, so both of its cuts are binary searches. They may write in place
// because the log is the shadow's own: a checkpoint copies its pending
// entries (capture), and nothing else holds them past the next suppress.
func dropThroughSN(log []msg.Message, sn uint64) []msg.Message {
	k := sort.Search(len(log), func(i int) bool { return log[i].SN > sn })
	if k == 0 {
		return log
	}
	return log[:copy(log, log[k:])]
}

// keepThroughSeq cuts log's suffix of entries with ChanSeq above seq off.
func keepThroughSeq(log []msg.Message, seq uint64) []msg.Message {
	return log[:sort.Search(len(log), func(i int) bool { return log[i].ChanSeq > seq })]
}
