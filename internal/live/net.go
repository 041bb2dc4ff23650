package live

import (
	"math/rand"
	"sync"
	"time"

	"github.com/synergy-ft/synergy/internal/msg"
)

// realNet delivers messages between nodes with bounded random delay and
// per-channel FIFO ordering, using real timers.
type realNet struct {
	mw *Middleware

	mu     sync.Mutex
	rng    *rand.Rand
	chans  map[pair]*chanQueue
	epoch  uint64
	timers *timerSet

	sent, delivered uint64
}

type pair struct{ from, to msg.ProcID }

// chanQueue is one directed channel's in-flight messages in send order. One
// drainer at a time walks it, so deliveries cannot overtake each other the
// way independent timers a microsecond apart can — and a receiver accepts a
// ChanSeq gap, so an overtaken message would be discarded as a duplicate.
type chanQueue struct {
	q        []inFlight
	last     time.Time // arrival of the newest message queued
	draining bool
}

type inFlight struct {
	m       msg.Message
	arrival time.Time
}

func newRealNet(mw *Middleware, seed int64) *realNet {
	return &realNet{
		mw:     mw,
		rng:    rand.New(rand.NewSource(seed)),
		chans:  make(map[pair]*chanQueue),
		timers: newTimerSet(),
	}
}

var _ transport = (*realNet)(nil)

// close stops pending deliveries.
func (n *realNet) close() { n.timers.stopAll() }

// send schedules delivery of m. Safe for concurrent use.
func (n *realNet) send(m msg.Message) {
	n.mw.obsm.msgsSent.Inc()
	n.mu.Lock()
	n.sent++
	if m.To == msg.Device {
		n.mu.Unlock()
		return // external messages leave the system
	}
	d := n.mw.cfg.MinDelay
	if span := int64(n.mw.cfg.MaxDelay - n.mw.cfg.MinDelay); span > 0 {
		d += time.Duration(n.rng.Int63n(span + 1))
	}
	ch := pair{from: m.From, to: m.To}
	cq := n.chans[ch]
	if cq == nil {
		cq = &chanQueue{}
		n.chans[ch] = cq
	}
	// Per-channel FIFO: never deliver before an earlier send's arrival.
	arrival := time.Now().Add(d)
	if arrival.Before(cq.last) {
		arrival = cq.last
	}
	cq.last = arrival
	cq.q = append(cq.q, inFlight{m: m, arrival: arrival})
	idle, epoch := !cq.draining, n.epoch
	cq.draining = true
	n.mu.Unlock()
	if idle {
		n.timers.after(d, func() { n.drain(cq, epoch) })
	}
}

// drain delivers the channel's due messages in order, then sleeps until the
// next one is due or retires when the queue is empty. A flush since it was
// armed retires it: the flush emptied the queue, and whatever was sent since
// armed a drainer of its own.
func (n *realNet) drain(cq *chanQueue, epoch uint64) {
	for {
		n.mu.Lock()
		if epoch != n.epoch {
			n.mu.Unlock()
			return
		}
		if len(cq.q) == 0 {
			cq.draining = false
			n.mu.Unlock()
			return
		}
		head := cq.q[0]
		if wait := time.Until(head.arrival); wait > 0 {
			n.mu.Unlock()
			n.timers.after(wait, func() { n.drain(cq, epoch) })
			return
		}
		cq.q = cq.q[1:]
		n.delivered++
		n.mu.Unlock()
		n.mw.obsm.msgsDelivered.Inc()
		n.mw.route(&head.m)
	}
}

// dropNode is a no-op: the channel transport has no per-node endpoints to
// sever — a down node's traffic is discarded at routing instead.
func (n *realNet) dropNode(msg.ProcID) {}

// rejoinNode is a no-op for the channel transport.
func (n *realNet) rejoinNode(msg.ProcID) error { return nil }

// flush invalidates all in-flight messages (system-wide rollback).
func (n *realNet) flush() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.epoch++
	clear(n.chans)
}

func (n *realNet) stats() (sent, delivered uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sent, n.delivered
}
