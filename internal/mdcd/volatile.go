package mdcd

import (
	"slices"

	"github.com/synergy-ft/synergy/internal/app"
	"github.com/synergy-ft/synergy/internal/checkpoint"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/tb"
	"github.com/synergy-ft/synergy/internal/trace"
	"github.com/synergy-ft/synergy/internal/vtime"
)

// contents is one checkpoint's contents held by value. The volatile slot
// keeps one, overwritten in place; a stable write fills the process's
// scratch one and encodes it at once (AppendTo), and Snapshot builds a
// record from one.
type contents struct {
	kind    checkpoint.Kind
	proc    msg.ProcID
	takenAt vtime.Time
	ndc     uint64
	dirty   bool
	msgSN   uint64
	state   app.State

	sentTo, recvFrom, validSN counts

	// The unacknowledged set: a mark on marks (the zero Mark: the live
	// set, read when the contents are), or, with marks nil, the messages
	// themselves. unacked is these contents' own buffer, kept across
	// captures: nothing else writes into it, and no reader keeps it.
	marks   *tb.Checkpointer
	mark    tb.Mark
	unacked []msg.Message
}

// capture fills c with the process's current state and bookkeeping; dirty
// is the effective dirty bit (the pseudo dirty bit for P1act under the
// modified protocol). The unacknowledged set is marked with mark, named live
// without; an un-promoted shadow's pending entries are copied into c's own
// buffer either way.
func (p *Process) capture(c *contents, kind checkpoint.Kind, mark bool) {
	pending := c.unacked[:0]
	*c = contents{
		kind:     kind,
		proc:     p.id,
		takenAt:  p.env.Now(),
		ndc:      p.env.Ndc(),
		dirty:    p.EffectiveDirty(),
		msgSN:    p.msgSN,
		state:    *p.State,
		sentTo:   p.sentTo,
		recvFrom: p.recvFrom,
		validSN:  p.validSN,
	}
	switch {
	case p.Unacked == nil:
	case p.suppressing():
		c.unacked = append(pending, p.SuppressedPending()...)
	case mark:
		c.marks, c.mark = p.Unacked, p.Unacked.MarkUnacked()
	default:
		c.marks = p.Unacked
	}
}

// suppressing reports whether the process is an un-promoted shadow, whose
// checkpoints store the suppressed entries a takeover would re-send
// (SuppressedPending) instead of the TB layer's set: its sends never reach
// the TB layer, so that set stays empty. After promotion the shadow
// transmits physically and the TB set takes over.
func (p *Process) suppressing() bool { return p.role == RoleShadow && !p.promoted }

// materialise builds the checkpoint record c describes, fresh: the caller
// owns it and everything it holds, a shadow's suppressed entries included.
func (c *contents) materialise() *checkpoint.Checkpoint {
	state := c.state
	out := &checkpoint.Checkpoint{
		Kind:     c.kind,
		Proc:     c.proc,
		TakenAt:  c.takenAt,
		Ndc:      c.ndc,
		Dirty:    c.dirty,
		MsgSN:    c.msgSN,
		State:    &state,
		SentTo:   c.sentTo.toMap(),
		RecvFrom: c.recvFrom.toMap(),
		ValidSN:  c.validSN.toMap(),
	}
	switch {
	case c.marks != nil:
		out.Unacked = c.marks.UnackedAt(c.mark)
	case len(c.unacked) > 0:
		out.Unacked = slices.Clone(c.unacked)
	}
	return out
}

// AppendTo implements checkpoint.Encoder: the contents encode as the record
// materialise builds from them would, read straight from the counter arrays
// and the unacknowledged log.
func (c *contents) AppendTo(buf []byte) []byte {
	buf = checkpoint.AppendHeader(buf, c.kind, c.proc, c.takenAt, c.ndc, c.dirty, c.msgSN, &c.state)
	buf = checkpoint.AppendCounts(buf, c.sentTo[:])
	buf = checkpoint.AppendCounts(buf, c.recvFrom[:])
	buf = checkpoint.AppendCounts(buf, c.validSN[:])
	if c.marks != nil {
		return c.marks.AppendUnacked(buf, c.mark)
	}
	return msg.EncodeSlice(buf, c.unacked)
}

// Snapshot captures the process's current state and message bookkeeping as a
// checkpoint of the given kind, with a copy of the unacknowledged set (the
// shadow's pending suppressed entries while it suppresses). Nothing the
// process does afterwards changes the result, so it can be stored as is.
func (p *Process) Snapshot(kind checkpoint.Kind) *checkpoint.Checkpoint {
	var c contents
	p.capture(&c, kind, false)
	return c.materialise()
}

// StableContents names a stable write's contents (tb.Host): the current
// state with the live unacknowledged set, or with fromVolatile the volatile
// slot's checkpoint relabelled stable and clean. Either is the process's
// scratch copy, which the next call overwrites; it builds no record. The
// scratch keeps its own unacknowledged buffer and copies the slot's entries
// into it: were it to adopt the slot's, the next capture into the scratch
// would overwrite the slot.
func (p *Process) StableContents(fromVolatile bool) (checkpoint.Encoder, bool) {
	w := &p.stable
	if !fromVolatile {
		p.capture(w, checkpoint.Stable, false)
		return w, true
	}
	if !p.Volatile.held {
		return nil, false
	}
	own := w.unacked[:0]
	*w = p.Volatile.c
	w.unacked = append(own, w.unacked...)
	w.kind, w.dirty = checkpoint.Stable, false // rCKPT captured a clean state
	return w, true
}

// Volatile is a process's volatile-storage checkpoint slot. Per the MDCD
// protocol a process never rolls back further than its most recent
// checkpoint, so the slot keeps one, by value: establishing a checkpoint
// overwrites it in place, and Latest builds the record on each read.
type Volatile struct {
	c    contents
	held bool
	// saves counts the checkpoints established, by kind: Type1, Type2 and
	// Pseudo are the only kinds a volatile checkpoint has.
	saves [checkpoint.Pseudo + 1]uint64
}

// Latest returns the most recent checkpoint, built fresh for the caller, or
// false if none exists (or the node has crashed since the last save).
func (v *Volatile) Latest() (*checkpoint.Checkpoint, bool) {
	if !v.held {
		return nil, false
	}
	return v.c.materialise(), true
}

// Crash models the loss of volatile contents when the hosting node fails.
func (v *Volatile) Crash() {
	v.c = contents{}
	v.held = false
}

// Saves returns the number of checkpoints established, an overhead metric.
func (v *Volatile) Saves() uint64 {
	return v.saves[checkpoint.Type1] + v.saves[checkpoint.Type2] + v.saves[checkpoint.Pseudo]
}

// takeVolatile establishes a volatile-storage checkpoint of the given kind,
// overwriting the slot. The unacknowledged set is marked, not copied: only
// the newest mark is readable, and the slot holds the process's only one. A
// suppressing shadow's few pending entries are copied into the slot's
// buffer instead.
func (p *Process) takeVolatile(kind checkpoint.Kind) {
	v := &p.Volatile
	p.capture(&v.c, kind, true)
	v.held = true
	v.saves[kind]++
	if p.rec != nil {
		p.rec(trace.Event{At: p.env.Now(), Proc: p.id, Kind: trace.CheckpointTaken, Ckpt: kind})
	}
}
