// Package invariant checks the paper's two global-state properties over a
// recovery line (the set of stable checkpoints hardware error recovery would
// restore):
//
//   - Consistency: a message reflected as received must be reflected as sent,
//     with consistent views on its validity.
//   - Recoverability: a message reflected as sent must be reflected as
//     received, or the recovery algorithm must be able to restore it (from
//     the sender's saved unacknowledged-message log).
//
// It additionally checks the software-recoverability property the
// coordination preserves: stable checkpoint contents must capture
// non-contaminated states, so a software error detected after a hardware
// rollback remains recoverable. The naive combination violates it (Figure
// 4(a)); the content-only strawman violates recoverability (Figure 4(b)).
package invariant

import (
	"fmt"
	"slices"

	"github.com/synergy-ft/synergy/internal/checkpoint"
	"github.com/synergy-ft/synergy/internal/msg"
)

// Kind classifies violations.
type Kind uint8

// Violation kinds.
const (
	// OrphanMessage: a checkpoint reflects receiving a message no sender
	// checkpoint reflects sending (consistency violation).
	OrphanMessage Kind = iota + 1
	// LostMessage: a checkpoint reflects sending a message the receiver
	// does not reflect, and the sender's unacknowledged log cannot
	// restore it (recoverability violation — Figure 4(b)).
	LostMessage
	// DirtyStableContent: a stable checkpoint captures a potentially
	// contaminated state, losing the most recent non-contaminated state
	// (Figure 4(a)).
	DirtyStableContent
	// CorruptedStableContent: a stable checkpoint captures a state that
	// is corrupted in ground truth (detectable only by the oracle).
	CorruptedStableContent
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case OrphanMessage:
		return "orphan-message"
	case LostMessage:
		return "lost-message"
	case DirtyStableContent:
		return "dirty-stable-content"
	case CorruptedStableContent:
		return "corrupted-stable-content"
	default:
		return fmt.Sprintf("violation(%d)", uint8(k))
	}
}

// Violation is one detected property breach.
type Violation struct {
	// Kind classifies the breach.
	Kind Kind
	// Proc is the process whose checkpoint exhibits it.
	Proc msg.ProcID
	// Detail describes the breach.
	Detail string
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	return fmt.Sprintf("%v@%v: %s", v.Kind, v.Proc, v.Detail)
}

// Line is a recovery line: the stable checkpoint each live process would
// restore, plus the channels whose counters those checkpoints record.
type Line struct {
	// Ckpts maps each live process to its restorable checkpoint.
	Ckpts map[msg.ProcID]*checkpoint.Checkpoint
	// Topology lists the line's channels; a channel with an endpoint
	// absent from Ckpts (a down or demoted process) is skipped.
	Topology []Channel
	// Live, when non-nil, carries the live counter evidence the dedup-aware
	// consistency rule consults (see Evidence).
	Live *Evidence
}

// Channel is a directed application-message flow whose counters the
// checkpoints record.
type Channel struct {
	// Sender and Receiver are the flow's endpoints.
	Sender, Receiver msg.ProcID
	// StreamKey is the component key the receiver's counters use (active
	// and shadow embodiments of one component share a stream).
	StreamKey msg.ProcID
}

// Evidence is a quiescent snapshot of the LIVE (post-checkpoint) protocol
// counters, sampled under the same locks as the line itself. It powers the
// dedup-aware consistency rule: the paper's bounded-delay assumption makes
// recovery lines consistent by construction, but a lossy link's retransmit
// can land a passed-AT refresh (or redeliver frames in flight at a crash)
// after the sender's blocking window, leaving the committed round with
// counters from opposite sides of the refresh. Recovery still converges —
// post-restore re-sends are absorbed by the receivers' per-channel ChanSeq
// duplicate-discard — so a gap is only a real violation when the live
// counters show the duplicate rule could NOT absorb it.
type Evidence struct {
	// Sent maps sender → receiver → the live per-channel send count.
	Sent map[msg.ProcID]map[msg.ProcID]uint64
	// Recv maps receiver → stream key → the live per-channel receive count.
	Recv map[msg.ProcID]map[msg.ProcID]uint64
	// Unacked maps sender → receiver → the ChanSeqs held in the sender's
	// live unacknowledged log.
	Unacked map[msg.ProcID]map[msg.ProcID][]uint64
}

// liveSent returns the live send counter for a channel, if evidenced.
func (e *Evidence) liveSent(sender, receiver msg.ProcID) (uint64, bool) {
	if e == nil {
		return 0, false
	}
	v, ok := e.Sent[sender][receiver]
	return v, ok
}

// liveRecv returns the live receive counter for a channel, if evidenced.
func (e *Evidence) liveRecv(receiver, streamKey msg.ProcID) (uint64, bool) {
	if e == nil {
		return 0, false
	}
	v, ok := e.Recv[receiver][streamKey]
	return v, ok
}

// liveUnackedHolds reports whether the sender's live unacknowledged log holds
// the given ChanSeq for the receiver.
func (e *Evidence) liveUnackedHolds(sender, receiver msg.ProcID, seq uint64) bool {
	if e == nil {
		return false
	}
	for _, s := range e.Unacked[sender][receiver] {
		if s == seq {
			return true
		}
	}
	return false
}

func (l Line) channels() []Channel {
	out := make([]Channel, 0, len(l.Topology))
	for _, ch := range l.Topology {
		if l.Ckpts[ch.Sender] == nil || l.Ckpts[ch.Receiver] == nil {
			continue
		}
		out = append(out, ch)
	}
	return out
}

// Check evaluates the line and returns every violation found. When the line
// carries live Evidence, gaps the ChanSeq duplicate-discard provably absorbs
// are excluded; CheckDetailed exposes them.
func (l Line) Check() []Violation {
	vs, _ := l.CheckDetailed()
	return vs
}

// CheckDetailed evaluates the line and returns the real violations alongside
// the transient gaps the dedup-aware rule absorbed (empty without Evidence).
func (l Line) CheckDetailed() (violations, absorbed []Violation) {
	violations, absorbed = l.checkChannels()
	violations = append(violations, l.checkContents()...)
	return violations, absorbed
}

// checkChannels verifies message-count consistency and unacked-log
// recoverability per channel.
func (l Line) checkChannels() (out, absorbed []Violation) {
	for _, ch := range l.channels() {
		sent := l.Ckpts[ch.Sender].SentTo[ch.Receiver]
		recv := l.Ckpts[ch.Receiver].RecvFrom[ch.StreamKey]
		if recv > sent {
			v := Violation{
				Kind: OrphanMessage,
				Proc: ch.Receiver,
				Detail: fmt.Sprintf("reflects %d messages from %v but %v reflects only %d sent",
					recv, ch.Sender, ch.Sender, sent),
			}
			// Dedup-aware rule: the orphan is transient — not a real
			// consistency breach — iff the live sender has actually
			// produced every message the receiver's checkpoint
			// reflects. Restoring this line then re-sends the gap
			// from the sender's rewound counters, and the receiver's
			// ChanSeq duplicate-discard absorbs the copies it already
			// applied; nothing is fabricated and nothing double-
			// applies. If even the live counter is behind, the
			// receiver reflects messages that were never sent.
			if liveSent, ok := l.Live.liveSent(ch.Sender, ch.Receiver); ok && liveSent >= recv {
				v.Detail += fmt.Sprintf(" (absorbed: live sender already at %d, re-sends deduplicate)", liveSent)
				absorbed = append(absorbed, v)
				continue
			}
			out = append(out, v)
			continue
		}
		// Every message in the gap (recv, sent] must be restorable
		// from the sender's saved unacknowledged log.
		stored := make(map[uint64]bool)
		for _, m := range l.Ckpts[ch.Sender].UnackedTo(ch.Receiver) {
			stored[m.ChanSeq] = true
		}
		for seq := recv + 1; seq <= sent; seq++ {
			if stored[seq] {
				continue
			}
			v := Violation{
				Kind: LostMessage,
				Proc: ch.Sender,
				Detail: fmt.Sprintf("message #%d to %v is reflected as sent, not received, and absent from the unacknowledged log",
					seq, ch.Receiver),
			}
			// Dedup-aware rule: the message is not actually lost iff
			// the live world still holds it — the receiver has since
			// applied it (the checkpointed counter merely predates
			// the delivery, and a post-restore re-send deduplicates),
			// or it still sits in the sender's live unacknowledged
			// log (the reconnect-layer retransmit redelivers it).
			if liveRecv, ok := l.Live.liveRecv(ch.Receiver, ch.StreamKey); ok && liveRecv >= seq {
				v.Detail += fmt.Sprintf(" (absorbed: live receiver already at %d)", liveRecv)
				absorbed = append(absorbed, v)
				continue
			}
			if l.Live.liveUnackedHolds(ch.Sender, ch.Receiver, seq) {
				v.Detail += " (absorbed: held in the live unacknowledged log)"
				absorbed = append(absorbed, v)
				continue
			}
			out = append(out, v)
		}
	}
	return out, absorbed
}

// checkContents verifies the stable contents capture non-contaminated
// states: the dirty flag must be clear, and (oracle check) the state must
// not be corrupted in ground truth.
func (l Line) checkContents() []Violation {
	var out []Violation
	// Sorted iteration keeps the violation order stable across runs.
	ids := make([]msg.ProcID, 0, len(l.Ckpts))
	for id := range l.Ckpts {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		c := l.Ckpts[id]
		if c.Dirty {
			out = append(out, Violation{
				Kind:   DirtyStableContent,
				Proc:   id,
				Detail: "stable checkpoint captures a potentially contaminated state",
			})
		}
		if c.State.Corrupted {
			out = append(out, Violation{
				Kind:   CorruptedStableContent,
				Proc:   id,
				Detail: "stable checkpoint captures a ground-truth corrupted state",
			})
		}
	}
	return out
}

// Count tallies violations of one kind.
func Count(vs []Violation, k Kind) int {
	n := 0
	for _, v := range vs {
		if v.Kind == k {
			n++
		}
	}
	return n
}
