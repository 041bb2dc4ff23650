package mdcd

import (
	"github.com/synergy-ft/synergy/internal/app"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/storage"
	"github.com/synergy-ft/synergy/internal/trace"
)

// Process is one protocol participant executing its role's error-containment
// algorithm. It is not safe for concurrent use; the simulator is single-
// threaded and the live middleware serializes events per node.
type Process struct {
	id   msg.ProcID
	role Role
	cfg  Config
	env  Env

	// State is the live application state.
	State *app.State
	// Volatile is the process's volatile-storage checkpoint slot.
	Volatile storage.Volatile

	failed   bool // demoted P1act after software error recovery
	promoted bool // shadow that has taken over the active role

	dirty       bool // dirty_bit (RoleActive: constant true during guarded op)
	pseudoDirty bool // pseudo_dirty_bit (RoleActive, ModeModified only)
	// recvDirty extends the pseudo dirty bit to reception contamination:
	// P1act's checkpoint baseline must also predate any applied
	// not-yet-validated message from a potentially contaminated P2,
	// otherwise its stable contents reflect receptions the sender's
	// restorable state can roll back (an orphan on the recovery line).
	// The paper's Figure 8 algorithm tracks only send-side state in
	// pseudo_dirty_bit; this is the reception-side completion, cleared by
	// the same validation events. (RoleActive, ModeModified only.)
	recvDirty bool

	msgSN  uint64                // msg_SN: own global send counter
	lastSN map[msg.ProcID]uint64 // highest SN seen per origin component
	// actInfluence is the highest P1act message SN reflected in this
	// process's state, directly (messages from the component-1 stream) or
	// transitively (the influence high-water piggybacked on P2's internal
	// messages). A passed-AT notification may reset the dirty bit only if
	// its ValidSN covers it: the direct act→P1sdw channel has no FIFO
	// relationship with the transitive act→P2→P1sdw path, so without the
	// guard a stale validation could launder contamination into a "clean"
	// Type-1 baseline.
	actInfluence uint64
	sentTo       map[msg.ProcID]uint64 // per-destination ChanSeq counters
	recvFrom     map[msg.ProcID]uint64 // per-origin-component ChanSeq high-water
	validSN      map[msg.ProcID]uint64 // per-origin validity views (VR registers)
	held         []msg.Message         // messages held during a blocking period
	deferred     []msg.Message         // acks withheld until the state is validated
	skipSet      map[msg.ProcID]bool   // destinations no longer sent to
	ignores      map[msg.ProcID]bool   // origins whose messages are dropped

	// msgLog and extLog are the shadow's suppressed outgoing messages to
	// P2 and to the device, each in send order with the dirty bit cleared.
	// No entry is ever rewritten in place (filterLog): checkpoints hold
	// views of msgLog (SuppressedPending).
	msgLog, extLog []msg.Message

	// Validated, when non-nil, fires after every accepted validation event
	// (own AT pass or accepted passed-AT). selfAT distinguishes the
	// process's own acceptance test from a received notification; wasDirty
	// reports whether the event validated a potentially contaminated state
	// (a true Type-2 establishment). The write-through baseline uses the
	// hook to save Type-2 checkpoints straight to stable storage.
	Validated func(selfAT, wasDirty bool)
	// DirtyChanged, when non-nil, fires when the effective dirty bit
	// transitions. The adapted TB checkpointer uses it to abort-and-
	// replace an in-progress stable write (write_disk's third argument).
	DirtyChanged func(dirty bool)
	// UnackedProvider, when non-nil, supplies the current
	// sent-but-unacknowledged messages; every checkpoint captures them so
	// a restored state can re-send exactly the messages it has produced
	// but whose delivery is not reflected anywhere durable. The snapshot
	// must be taken at content-capture time: a stable checkpoint that
	// copies an older volatile checkpoint needs the unacknowledged set as
	// of that older instant, or messages acknowledged in between are lost
	// to recovery.
	UnackedProvider func() []msg.Message

	// Obs holds the process's metrics; the zero value disables them.
	Obs Obs

	stats Stats
}

// Stats counts containment-algorithm activity for overhead reporting.
type Stats struct {
	// ATsRun counts acceptance tests performed.
	ATsRun uint64
	// ATsFailed counts detections (failed ATs).
	ATsFailed uint64
	// InternalSent, ExternalSent count emitted application messages.
	InternalSent, ExternalSent uint64
	// Suppressed counts shadow messages suppressed and logged.
	Suppressed uint64
	// Duplicates counts re-delivered messages discarded by ChanSeq dedup.
	Duplicates uint64
	// RejectedNdc counts passed-AT notifications the Ndc gate deferred
	// past a blocking period.
	RejectedNdc uint64
	// RejectedStale counts passed-AT notifications whose coverage was
	// below the receiver's component-1 influence.
	RejectedStale uint64
	// Held counts messages held during blocking periods.
	Held uint64
}

// NewProcess creates a process in its role's initial protocol state. During
// guarded operation P1act's (actual) dirty bit has a constant value of one:
// it is created from the low-confidence version.
func NewProcess(id msg.ProcID, role Role, cfg Config, env Env) *Process {
	p := &Process{
		id:       id,
		role:     role,
		cfg:      cfg,
		env:      env,
		State:    app.NewState(),
		lastSN:   make(map[msg.ProcID]uint64),
		sentTo:   make(map[msg.ProcID]uint64),
		recvFrom: make(map[msg.ProcID]uint64),
		validSN:  make(map[msg.ProcID]uint64),
	}
	if role == RoleActive {
		p.dirty = true // invariably regarded as potentially contaminated
	}
	return p
}

// ID returns the process identity.
func (p *Process) ID() msg.ProcID { return p.id }

// Role returns the containment algorithm the process runs.
func (p *Process) Role() Role { return p.role }

// Failed reports whether the process has been demoted (P1act after a
// detected software error).
func (p *Process) Failed() bool { return p.failed }

// Promoted reports whether a shadow has taken over the active role.
func (p *Process) Promoted() bool { return p.promoted }

// Stats returns the activity counters.
func (p *Process) Stats() Stats { return p.stats }

// Dirty returns the actual dirty bit.
func (p *Process) Dirty() bool { return p.dirty }

// EffectiveDirty returns the bit the TB protocol consults when choosing
// stable-checkpoint contents: the pseudo dirty bit (extended with reception
// contamination) for P1act — the paper's footnote 2 — and the dirty bit for
// everyone else.
func (p *Process) EffectiveDirty() bool {
	if p.role == RoleActive && p.cfg.Mode == ModeModified {
		return p.pseudoDirty || p.recvDirty
	}
	return p.dirty
}

// ValidSN returns the process's validity view for the given origin: the
// highest message SN of that origin verified correct (VRact for the
// component-1 stream).
func (p *Process) ValidSN(origin msg.ProcID) uint64 { return p.validSN[origin] }

// SentTo returns the per-destination channel sequence counter.
func (p *Process) SentTo(dst msg.ProcID) uint64 { return p.sentTo[dst] }

// RecvFrom returns the per-origin-component receive high-water mark.
func (p *Process) RecvFrom(origin msg.ProcID) uint64 { return p.recvFrom[msg.Component(origin)] }

// MsgLogLen returns the number of suppressed messages currently logged.
func (p *Process) MsgLogLen() int { return len(p.msgLog) + len(p.extLog) }

// setDirty updates the actual dirty bit, tracing and notifying on change.
func (p *Process) setDirty(v bool) {
	if p.dirty == v {
		return
	}
	p.dirty = v
	kind := trace.DirtyCleared
	if v {
		kind = trace.DirtySet
	}
	p.Obs.dirtyCounter(v).Inc()
	p.env.Record(trace.Event{At: p.env.Now(), Proc: p.id, Kind: kind})
	if p.DirtyChanged != nil && !(p.role == RoleActive && p.cfg.Mode == ModeModified) {
		p.DirtyChanged(v)
	}
}

// setPseudoDirty updates P1act's pseudo dirty bit.
func (p *Process) setPseudoDirty(v bool) {
	if p.pseudoDirty == v {
		return
	}
	before := p.EffectiveDirty()
	p.pseudoDirty = v
	p.noteEffectiveChange(before, "pseudo")
}

// setRecvDirty updates P1act's reception-contamination bit.
func (p *Process) setRecvDirty(v bool) {
	if p.recvDirty == v {
		return
	}
	before := p.EffectiveDirty()
	p.recvDirty = v
	p.noteEffectiveChange(before, "recv-dirty")
}

// noteEffectiveChange traces and notifies when the effective dirty bit
// actually transitioned.
func (p *Process) noteEffectiveChange(before bool, note string) {
	after := p.EffectiveDirty()
	if before == after {
		return
	}
	kind := trace.DirtyCleared
	if after {
		kind = trace.DirtySet
	}
	p.Obs.dirtyCounter(after).Inc()
	p.env.Record(trace.Event{At: p.env.Now(), Proc: p.id, Kind: kind, Note: note})
	if p.DirtyChanged != nil {
		p.DirtyChanged(after)
	}
}
