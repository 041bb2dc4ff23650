package tb

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/synergy-ft/synergy/internal/checkpoint"
	"github.com/synergy-ft/synergy/internal/msg"
)

// The TB protocol avoids blocking-for-recoverability by saving every message
// for which no acknowledgement has been received as part of the next stable
// checkpoint; hardware error recovery then re-sends them.

// ErrNoStableCheckpoint is returned when recovery is attempted before any
// stable checkpoint has been committed.
var ErrNoStableCheckpoint = errors.New("tb: no stable checkpoint committed yet")

// OnSend records an outgoing application-purpose message as unacknowledged.
// The coordination layer calls it for every app message handed to the
// interconnect (external messages leave the system and are not tracked).
func (c *Checkpointer) OnSend(m msg.Message) {
	if !m.IsApp() || m.To == msg.Device {
		return
	}
	c.unacked.add(m)
}

// OnAck clears the oldest unacknowledged entry matched by the ack's sender
// and channel sequence number.
func (c *Checkpointer) OnAck(ack msg.Message) {
	l := &c.unacked
	for i := l.head; i < len(l.buf); i++ {
		if e := &l.buf[i]; e.removed == 0 && e.m.To == ack.From && e.m.ChanSeq == ack.AckSN {
			l.remove(e)
			l.settle()
			return
		}
	}
}

// EachUnacked calls fn on every unacknowledged message in send order, without
// copying the set. fn must not change the set.
func (c *Checkpointer) EachUnacked(fn func(msg.Message)) {
	c.unacked.each(Mark{}, func(m *msg.Message) { fn(*m) })
}

// UnackedLen returns the live unacknowledged count.
func (c *Checkpointer) UnackedLen() int { return c.unacked.live }

// MarkUnacked names the live unacknowledged set without copying it, for a
// volatile checkpoint to store in place of a copy. Only the newest mark is
// readable: taking one retires the one before.
func (c *Checkpointer) MarkUnacked() Mark { return c.unacked.takeMark() }

// UnackedAt copies out the set a mark names, in send order: the set when the
// mark was taken (every entry sent before it and not removed by then), or
// the live set for the zero Mark. It panics on any other mark but the
// newest.
func (c *Checkpointer) UnackedAt(mk Mark) []msg.Message { return c.unacked.at(mk) }

// AppendUnacked encodes the set a mark names (the live set for the zero
// Mark) as msg.EncodeSlice encodes it, straight from the log: a stable write
// stores its unacknowledged set this way, with no copy in between.
func (c *Checkpointer) AppendUnacked(buf []byte, mk Mark) []byte {
	at := len(buf)
	buf = binary.LittleEndian.AppendUint64(buf, 0)
	n := 0
	c.unacked.each(mk, func(m *msg.Message) {
		buf = msg.Encode(buf, *m)
		n++
	})
	binary.LittleEndian.PutUint64(buf[at:], uint64(n))
	return buf
}

// LatestStable returns the last committed stable checkpoint.
func (c *Checkpointer) LatestStable() (*checkpoint.Checkpoint, error) {
	cp, ok, err := c.Stable.Latest()
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, ErrNoStableCheckpoint
	}
	return cp, nil
}

// PrepareRecoveryAt rewinds the checkpointer for a hardware-fault rollback
// to the given round (the highest round every live process has committed —
// rolling every process back to the same round is what makes the restored
// line consistent; time-based protocols retain the previous checkpoint for
// exactly this reason). Any in-flight write is abandoned (the committed
// checkpoints survive, as a real disk guarantees via shadow paging),
// blocking ends, timers stop, newer rounds are discarded, Ndc rewinds, and
// the live unacknowledged set reverts to the one stored in the returned
// checkpoint. The caller restores the process, re-sends the unacknowledged
// messages, and calls Start.
func (c *Checkpointer) PrepareRecoveryAt(round uint64) (*checkpoint.Checkpoint, error) {
	c.Stop()
	if round == 0 {
		return nil, ErrNoStableCheckpoint
	}
	cp, ok, err := c.Stable.Round(round)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("tb: round %d not retained (latest %d)", round, c.Stable.LatestRound())
	}
	// Ndc rewinds first: the store rewinds in memory even when its disk
	// refuses the truncation, and a node that fail-stops on that refusal
	// comes back at round — what its peers must keep pinned.
	c.ndc = round
	c.published.Store(c.ndc)
	if err := c.Stable.TruncateAbove(round); err != nil {
		return nil, err
	}
	c.AdoptUnacked(cp.Unacked)
	return cp, nil
}

// ResumeFromStable aligns the checkpointer with a stable history loaded
// from durable storage (Stable.Load after a node restart): Ndc advances to
// the newest recovered round and the live unacknowledged set reverts to the
// one stored with it — the messages the crashed process had produced but
// never seen acknowledged, which hardware recovery re-sends over the
// reconnect. The caller restores the process from the same checkpoint.
func (c *Checkpointer) ResumeFromStable() (*checkpoint.Checkpoint, error) {
	cp, ok, err := c.Stable.Latest()
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, ErrNoStableCheckpoint
	}
	c.ndc = c.Stable.LatestRound()
	c.published.Store(c.ndc)
	c.AdoptUnacked(cp.Unacked)
	return cp, nil
}

// CommitImmediate writes a checkpoint's contents through to stable storage
// outside the timer machinery (the write-through baseline commits on every
// validation event) and advances Ndc.
func (c *Checkpointer) CommitImmediate(cp checkpoint.Encoder) error {
	if err := c.Stable.Begin(cp); err != nil {
		return err
	}
	if err := c.Stable.Commit(c.ndc + 1); err != nil {
		return err
	}
	c.ndc++
	c.published.Store(c.ndc)
	return nil
}

// StableAtRound returns the retained checkpoint for the given round.
func (c *Checkpointer) StableAtRound(round uint64) (*checkpoint.Checkpoint, error) {
	cp, ok, err := c.Stable.Round(round)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("tb: round %d not retained", round)
	}
	return cp, nil
}

// AdoptUnacked replaces the live unacknowledged set with the one stored in a
// restored checkpoint, so future stable checkpoints and re-sends are
// relative to the restored state.
func (c *Checkpointer) AdoptUnacked(stored []msg.Message) {
	c.unacked.removeIf(func(msg.Message) bool { return true })
	for _, m := range stored {
		c.unacked.add(m)
	}
}

// ReconcileUnacked prunes unacknowledged entries whose sends were undone by
// a rollback: any entry whose channel sequence exceeds the restored send
// counter for its destination no longer corresponds to a message the current
// state has produced.
func (c *Checkpointer) ReconcileUnacked(sentTo func(to msg.ProcID) uint64) {
	c.unacked.removeIf(func(m msg.Message) bool { return m.ChanSeq > sentTo(m.To) })
}

// DropUnacked removes every unacknowledged entry addressed to one
// destination (software recovery rewinds the component-1 stream through the
// shadow's log instead of re-sending it).
func (c *Checkpointer) DropUnacked(to msg.ProcID) {
	c.unacked.removeIf(func(m msg.Message) bool { return m.To == to })
}

// Mark names the unacknowledged set at one instant: the log end and the
// epoch at capture. Its set is every entry appended before end and not
// removed by epoch. The zero Mark names the live set, read as it stands when
// it is read.
type Mark struct{ end, epoch uint64 }

// unackedLog is the unacknowledged set as one append-only log of sends. A
// removal (an ack, a reconcile, a drop, an adopt) stamps the entry with the
// removal epoch instead of splicing it out, so a mark reads the set it named
// for as long as the entries it needs stay. Those are the removed entries
// the newest mark still reads (pinned); every other removed entry is dead.
// Three rules keep the log O(live + marked) and its appends allocation-free
// in steady state:
//
//   - the dead prefix is skipped by a head offset;
//   - the buffer is compacted in place, dead entries dropped, once more than
//     half of it is dead, where at most compactSlack pinned entries count as
//     kept (so the dead never outnumber the live by more than compactSlack);
//   - a stale mark, one pinning more than staleBase + 4 × live entries, is
//     materialised once and pins nothing after.
//
// A log that is never marked pins nothing: every removed entry is dead at
// once.
type unackedLog struct {
	buf    []sent // in send order; buf[:head] is dead
	head   int
	next   uint64 // the position the next append takes
	epoch  uint64 // marks taken; a removal stamps epoch+1
	live   int
	pinned int
	dead   int // buf[:head] included
	mark   Mark
	// frozen is the newest mark's set once it went stale, nil before.
	frozen []msg.Message
}

// sent is one entry of the log.
type sent struct {
	m       msg.Message
	pos     uint64
	removed uint64 // the removal epoch; 0 while unacknowledged
}

const (
	compactSlack = 32
	staleBase    = 64
)

func (l *unackedLog) add(m msg.Message) {
	l.buf = append(l.buf, sent{m: m, pos: l.next})
	l.next++
	l.live++
}

// reads reports whether the newest mark's set holds e.
func (l *unackedLog) reads(e *sent) bool {
	return l.frozen == nil && e.pos < l.mark.end && (e.removed == 0 || e.removed > l.mark.epoch)
}

// remove stamps a live entry removed; the caller settles.
func (l *unackedLog) remove(e *sent) {
	e.removed = l.epoch + 1
	l.live--
	if l.reads(e) {
		l.pinned++
	} else {
		l.dead++
	}
}

// removeIf removes every live entry drop selects, in send order.
func (l *unackedLog) removeIf(drop func(msg.Message) bool) {
	for i := l.head; i < len(l.buf); i++ {
		if e := &l.buf[i]; e.removed == 0 && drop(e.m) {
			l.remove(e)
		}
	}
	l.settle()
}

func (l *unackedLog) takeMark() Mark {
	l.epoch++
	l.mark = Mark{end: l.next, epoch: l.epoch}
	l.frozen = nil
	l.dead += l.pinned
	l.pinned = 0
	l.settle()
	return l.mark
}

// each calls fn on every entry of the set mk names, in send order: the
// live set for the zero Mark, else the newest mark's (it panics on any
// other). It is the one walk every reader of the log shares.
func (l *unackedLog) each(mk Mark, fn func(*msg.Message)) {
	if mk == (Mark{}) {
		for i := l.head; i < len(l.buf); i++ {
			if e := &l.buf[i]; e.removed == 0 {
				fn(&e.m)
			}
		}
		return
	}
	if mk != l.mark {
		panic("tb: only the newest unacknowledged mark is readable")
	}
	if l.frozen != nil {
		for i := range l.frozen {
			fn(&l.frozen[i])
		}
		return
	}
	for i := l.head; i < len(l.buf) && l.buf[i].pos < mk.end; i++ {
		if e := &l.buf[i]; l.reads(e) {
			fn(&e.m)
		}
	}
}

// at copies out the set mk names (each).
func (l *unackedLog) at(mk Mark) []msg.Message {
	var out []msg.Message
	l.each(mk, func(m *msg.Message) { out = append(out, *m) })
	return out
}

// settle applies the three rules after a change.
func (l *unackedLog) settle() {
	if l.frozen == nil && l.pinned > staleBase+4*l.live {
		l.frozen = l.at(l.mark)
		l.dead += l.pinned
		l.pinned = 0
	}
	for l.head < len(l.buf) && l.buf[l.head].removed != 0 && !l.reads(&l.buf[l.head]) {
		l.head++
	}
	if l.dead > l.live+min(l.pinned, compactSlack) {
		kept := l.buf[:0]
		for i := l.head; i < len(l.buf); i++ {
			if e := &l.buf[i]; e.removed == 0 || l.reads(e) {
				kept = append(kept, *e)
			}
		}
		l.buf, l.head, l.dead = kept, 0, 0
	}
}
