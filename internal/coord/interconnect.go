package coord

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/synergy-ft/synergy/internal/chaos"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/seam"
	"github.com/synergy-ft/synergy/internal/vtime"
)

// NetConfig holds the delay bounds of the interconnect.
type NetConfig struct {
	// MinDelay is tmin, the minimum message-delivery delay.
	MinDelay time.Duration
	// MaxDelay is tmax, the maximum message-delivery delay.
	MaxDelay time.Duration
}

// Validate reports whether the delay bounds are usable.
func (c NetConfig) Validate() error {
	if c.MinDelay < 0 || c.MaxDelay < c.MinDelay {
		return fmt.Errorf("coord: invalid delay bounds [%v, %v]", c.MinDelay, c.MaxDelay)
	}
	return nil
}

// NetStats aggregates interconnect activity.
type NetStats struct {
	// Sent counts messages handed to the network.
	Sent uint64
	// Delivered counts messages that reached a live destination.
	Delivered uint64
	// DroppedDown counts messages lost because the destination node was
	// down when they arrived.
	DroppedDown uint64
	// Flushed counts in-transit messages discarded by a recovery flush,
	// each as its arrival comes due.
	Flushed uint64
}

// Interconnect is the assembly's in-process interconnect — the network
// assumption the TB blocking periods are derived from, written once over the
// execution seam's Deliver: reliable delivery with a delay in [tmin, tmax],
// FIFO per directed channel (a passed-AT notification must not overtake the
// application messages it covers, and a receiver accepts a ChanSeq gap, so an
// overtaken message would be discarded as a duplicate), per-node failure
// state, and a flush that discards everything in flight. Both runtimes carry
// their messages on it: the simulator on seam.Sim, the wall-clock middleware's
// channel transport on wall.Runtime. It is safe for concurrent use.
type Interconnect struct {
	rt      seam.Runtime
	cfg     NetConfig
	seed    int64
	inj     *chaos.Injector
	deliver func(msg.Message)

	// epoch invalidates in-flight deliveries when recovery flushes the
	// network (a system-wide rollback acts as an incarnation change).
	epoch atomic.Uint64
	// down is indexed by process ID: node i hosts process i.
	down                                  [256]atomic.Bool
	sent, delivered, droppedDown, flushed atomic.Uint64

	// free holds the flight records no queue holds, for the next send to
	// take: the runtime's queues keep at most the messages in flight, so
	// the list stops growing once the busiest moment has passed.
	mu   sync.Mutex
	free []*flight
}

// flight is one copy of a message in flight: a recycled record whose
// callback is bound once, instead of a closure per send. It belongs to the
// runtime's queue from Deliver until its callback runs, so a duplicate copy
// takes a record of its own.
type flight struct {
	c     *Interconnect
	m     msg.Message
	epoch uint64 // the flush epoch the copy was sent in
	fn    func() // arrive, bound once
}

// NewInterconnect builds the interconnect over rt. Arrivals are handed to
// deliver with the destination node held. A non-nil injector puts link faults
// below the reliable-delivery abstraction, mirroring the live TCP transport's
// semantics: a random drop costs the retransmission timeout, a partition hit
// holds the frame until the window heals plus the retransmission timeout
// (head-of-line: per-channel FIFO delays everything queued behind it), jitter
// adds delay, a duplicate is delivered twice, and a corrupted copy is
// CRC-dropped at the receiver so it only counts as an injected fault. All
// chaos delay lands on top of the [tmin, tmax] base delay, exactly as the live
// writer sleeps outside the modeled propagation bounds.
func NewInterconnect(rt seam.Runtime, seed int64, cfg NetConfig, inj *chaos.Injector, deliver func(msg.Message)) *Interconnect {
	return &Interconnect{rt: rt, cfg: cfg, seed: seed, inj: inj, deliver: deliver}
}

// chaosFrameLen is the wire-size proxy handed to the injector for its
// corrupt-byte draw: there is no encoded frame here, so a fixed typical frame
// length keeps the draw count per corrupt verdict identical to the live TCP
// path (two draws) without depending on codec details.
const chaosFrameLen = 64

// Send transmits m (the sender is held). A message addressed outside the
// three processes — msg.Device, the external world — leaves the system: it
// counts as sent and is never delivered.
func (c *Interconnect) Send(m msg.Message) {
	if c.down[m.From].Load() {
		return // a process on a failed node emits nothing
	}
	c.sent.Add(1)
	if m.To < msg.P1Act || m.To > msg.P2 {
		return
	}
	d := c.delayFor(m)
	duplicate := false
	if c.inj != nil {
		elapsed := c.rt.Now().Sub(vtime.Zero)
		v := c.inj.FrameVerdict(m.From, m.To, elapsed, chaosFrameLen)
		if v.Drop {
			if heal := c.inj.HealAt(m.From, m.To, elapsed); heal > elapsed {
				// Partition hit: the frame waits out the window, then
				// pays the retransmission timeout like any other drop.
				d += heal - elapsed
			}
			d += chaos.RetransmitDelay
		}
		// A corrupt verdict needs no delay model: the live writer puts the
		// bit-flipped copy and the clean retransmission in the same batch
		// and the receiver's CRC drops the garbage, so corruption is pure
		// fault accounting here.
		d += v.ExtraDelay
		duplicate = v.Duplicate
	}
	epoch := c.epoch.Load()
	c.rt.Deliver(m.From, m.To, d, c.flight(m, epoch).fn)
	if duplicate {
		// The second copy lands right behind the first; the protocol's
		// ChanSeq dedup discards and re-acks it.
		c.rt.Deliver(m.From, m.To, d, c.flight(m, epoch).fn)
	}
}

// flight takes a recycled (or new) record for one copy of m.
func (c *Interconnect) flight(m msg.Message, epoch uint64) *flight {
	c.mu.Lock()
	var f *flight
	if n := len(c.free); n > 0 {
		f, c.free = c.free[n-1], c.free[:n-1]
	}
	c.mu.Unlock()
	if f == nil {
		f = &flight{c: c}
		f.fn = f.arrive
	}
	f.m, f.epoch = m, epoch
	return f
}

// arrive ends one copy's flight, holding the destination. The record goes
// back on the free list before the message is handed on, so what the
// delivery sends can reuse it.
func (f *flight) arrive() {
	c, m, epoch := f.c, f.m, f.epoch
	c.mu.Lock()
	c.free = append(c.free, f)
	c.mu.Unlock()
	switch {
	case epoch != c.epoch.Load():
		c.flushed.Add(1)
	case c.down[m.To].Load():
		c.droppedDown.Add(1)
	default:
		c.delivered.Add(1)
		c.deliver(m)
	}
}

// delayFor derives a deterministic delivery delay for a message from the run
// seed and the message identity. Broadcast copies of one logical message
// (same origin and SN) travel with the same delay, keeping the active and
// shadow replicas aligned.
func (c *Interconnect) delayFor(m msg.Message) time.Duration {
	h := uint64(c.seed) ^ 0x8a91b2c3d4e5f607
	h = splitmix(h ^ uint64(m.From)<<8 ^ uint64(m.Kind))
	h = splitmix(h ^ m.SN)
	h = splitmix(h ^ m.ValidSN ^ m.Ndc<<17 ^ m.AckSN<<29 ^ m.ChanSeq<<43)
	span := uint64(c.cfg.MaxDelay - c.cfg.MinDelay)
	if span == 0 {
		return c.cfg.MinDelay
	}
	return c.cfg.MinDelay + time.Duration(h%(span+1))
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Flush discards every in-flight message. Recovery rolls processes back; the
// flush plays the role of the incarnation-number mechanism real systems use
// to reject messages from before the rollback.
func (c *Interconnect) Flush() { c.epoch.Add(1) }

// Down marks node id failed: messages arriving there are dropped and its
// sends are suppressed, until Up.
func (c *Interconnect) Down(id msg.ProcID) { c.down[id].Store(true) }

// Up marks node id repaired. It cannot fail.
func (c *Interconnect) Up(id msg.ProcID) error {
	c.down[id].Store(false)
	return nil
}

// Stats counts messages handed over and delivered.
func (c *Interconnect) Stats() (sent, delivered uint64) {
	return c.sent.Load(), c.delivered.Load()
}

// Counters returns a copy of all the activity counters.
func (c *Interconnect) Counters() NetStats {
	return NetStats{
		Sent:        c.sent.Load(),
		Delivered:   c.delivered.Load(),
		DroppedDown: c.droppedDown.Load(),
		Flushed:     c.flushed.Load(),
	}
}
