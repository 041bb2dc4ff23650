package benchmark

import (
	"strings"

	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/trace"
	"github.com/synergy-ft/synergy/internal/vtime"
)

// msgKey identifies one application message on one directed channel.
type msgKey struct {
	from, to msg.ProcID
	sn       uint64
}

// Delivery is one paired application message.
type Delivery struct {
	From, To msg.ProcID
	SN       uint64
	Sent     vtime.Time
	Received vtime.Time
}

// Ms is the delivery latency in milliseconds.
func (d Delivery) Ms() float64 { return float64(d.Received-d.Sent) / 1e6 }

// PairDeliveries matches each internal application message's first
// non-suppressed MsgSent with its first MsgDelivered at the destination, on
// (From, To, SN). A shadow's suppressed sends never reach the wire and are
// skipped; an SN that recovery re-sends is measured from its first send, so
// an outage shows as latency. Only sends at or after from are paired.
// unmatched counts paired-eligible sends older than cut that have no
// delivery in the trace.
//
// MsgSent is recorded after the transport accepts the frame, so a delivery
// can precede its own send in the trace by a few microseconds: pairing is by
// key, not by order, and a negative latency reads 0.
func PairDeliveries(events []trace.Event, from, cut vtime.Time) (pairs []Delivery, unmatched int) {
	sent := make(map[msgKey]vtime.Time)
	recv := make(map[msgKey]vtime.Time)
	var order []msgKey
	for _, e := range events {
		if e.Msg.Kind != msg.Internal {
			continue
		}
		k := msgKey{e.Msg.From, e.Msg.To, e.Msg.SN}
		switch e.Kind {
		case trace.MsgSent:
			if e.Note == "suppressed" || e.At < from {
				continue
			}
			if _, dup := sent[k]; !dup {
				sent[k] = e.At
				order = append(order, k)
			}
		case trace.MsgDelivered:
			if e.Proc != e.Msg.To {
				continue
			}
			if _, dup := recv[k]; !dup {
				recv[k] = e.At
			}
		}
	}
	for _, k := range order {
		s := sent[k]
		r, ok := recv[k]
		if !ok {
			if s < cut {
				unmatched++
			}
			continue
		}
		if r < s {
			r = s
		}
		pairs = append(pairs, Delivery{From: k.from, To: k.to, SN: k.sn, Sent: s, Received: r})
	}
	return pairs, unmatched
}

// SliceMs splits the deliveries' latencies (in milliseconds) into consecutive
// slices of width nanoseconds by send time, starting at from. Sends before
// from are left out.
func SliceMs(pairs []Delivery, from vtime.Time, width int64) [][]float64 {
	var out [][]float64
	for _, p := range pairs {
		if p.Sent < from {
			continue
		}
		i := int(int64(p.Sent-from) / width)
		for len(out) <= i {
			out = append(out, nil)
		}
		out[i] = append(out[i], p.Ms())
	}
	return out
}

// Round is one TB blocking period of one process, with the durable write
// that ran inside it (zero when the write is missing from the trace).
type Round struct {
	Proc                     msg.ProcID
	BlockStart, BlockEnd     vtime.Time
	StableBegun, StableEnded vtime.Time
}

// BlockMs is the blocking period's actual length in milliseconds.
func (r Round) BlockMs() float64 { return float64(r.BlockEnd-r.BlockStart) / 1e6 }

// StableMs is the length of the stable write in milliseconds, begin to
// durable commit; 0 when the round has none.
func (r Round) StableMs() float64 {
	if r.StableEnded == 0 {
		return 0
	}
	return float64(r.StableEnded-r.StableBegun) / 1e6
}

// PairRounds rebuilds each process's checkpoint rounds that start at or
// after from: BlockStarted→BlockEnded, with StableBegun→StableCommitted
// attached when the commit landed (failed attempts are not a commit). A
// block with no end in the trace (a kill, the end of the run) is dropped.
func PairRounds(events []trace.Event, from vtime.Time) []Round {
	open := make(map[msg.ProcID]*Round)
	begun := make(map[msg.ProcID]vtime.Time)
	var out []Round
	for _, e := range events {
		switch e.Kind {
		case trace.StableBegun:
			if !strings.Contains(e.Note, "failed") {
				begun[e.Proc] = e.At
			}
		case trace.BlockStarted:
			if e.At < from {
				delete(open, e.Proc)
				continue
			}
			open[e.Proc] = &Round{Proc: e.Proc, BlockStart: e.At, StableBegun: begun[e.Proc]}
		case trace.StableCommitted:
			if r := open[e.Proc]; r != nil && !strings.Contains(e.Note, "failed") {
				r.StableEnded = e.At
			}
		case trace.BlockEnded:
			if r := open[e.Proc]; r != nil {
				r.BlockEnd = e.At
				out = append(out, *r)
				delete(open, e.Proc)
			}
		case trace.NodeCrashed:
			delete(open, e.Proc)
		}
	}
	return out
}

// ServiceGapsMs returns, for each NodeCrashed event, the time until the
// crashed process next passes a message to its application, in milliseconds.
// A crash with no later delivery in the trace yields no sample.
func ServiceGapsMs(events []trace.Event) []float64 {
	var gaps []float64
	pending := make(map[msg.ProcID]vtime.Time)
	for _, e := range events {
		switch e.Kind {
		case trace.NodeCrashed:
			if _, ok := pending[e.Proc]; !ok {
				pending[e.Proc] = e.At
			}
		case trace.MsgDelivered:
			if at, ok := pending[e.Proc]; ok && e.Msg.Kind == msg.Internal {
				gaps = append(gaps, float64(e.At-at)/1e6)
				delete(pending, e.Proc)
			}
		}
	}
	return gaps
}
