package live

import (
	"sync/atomic"
	"time"

	"github.com/synergy-ft/synergy/internal/msg"
)

// realNet is the in-process channel transport: the runtime's Deliver — a
// bounded random delay, FIFO per directed channel, the callback on the
// destination's loop holding the destination — plus an epoch gate, so a flush
// discards everything in flight.
type realNet struct {
	mw              *Middleware
	epoch           atomic.Uint64
	sent, delivered atomic.Uint64
}

var _ transport = (*realNet)(nil)

// send schedules delivery of m. Safe for concurrent use. A receiver accepts a
// ChanSeq gap, so an overtaken message would be discarded as a duplicate:
// Deliver's per-channel order is what a recovery's burst of re-sends needs.
func (n *realNet) send(m msg.Message) {
	mw := n.mw
	mw.obsm.msgsSent.Inc()
	n.sent.Add(1)
	if _, ok := mw.nodes[m.To]; !ok {
		return // external messages leave the system
	}
	d := mw.cfg.MinDelay
	if span := int64(mw.cfg.MaxDelay - mw.cfg.MinDelay); span > 0 {
		d += time.Duration(mw.rt.Rand(m.To).Int63n(span + 1))
	}
	epoch := n.epoch.Load()
	mw.rt.Deliver(m.From, m.To, d, func() {
		if epoch != n.epoch.Load() {
			return // flushed by a recovery in the meantime
		}
		n.delivered.Add(1)
		mw.obsm.msgsDelivered.Inc()
		mw.route(&m, true)
	})
}

// flush invalidates all in-flight messages (system-wide rollback).
func (n *realNet) flush() { n.epoch.Add(1) }

func (n *realNet) stats() (sent, delivered uint64) { return n.sent.Load(), n.delivered.Load() }

// The channel transport has no per-node endpoints to sever — a down node's
// traffic is discarded at routing instead — and nothing of its own to close:
// pending deliveries die with the node loops.
func (n *realNet) dropNode(msg.ProcID)         {}
func (n *realNet) rejoinNode(msg.ProcID) error { return nil }
func (n *realNet) close()                      {}
