package cluster

import (
	"time"

	"github.com/synergy-ft/synergy/internal/gossip"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/seam"
	"github.com/synergy-ft/synergy/internal/sim"
)

// Sim is a cluster on the deterministic discrete-event engine (seam.Sim): one
// event thread, virtual time, seeded delays and chaos — identical transcripts
// per seed at any membership size. This is the runtime that scales to 50 and
// 100 nodes.
type Sim struct {
	*Cluster
	eng *sim.Engine
}

// simRuntime is the engine runtime plus the cluster's gossip datagrams, which
// the simulator carries as plain engine events. Its free lists — of
// datagrams, and of the buffers a datagram copies a packet's updates and
// digest into — are per instance: campaign workers run several simulators at
// once, each on its own single event thread.
type simRuntime struct {
	*seam.Sim
	free    []*simDatagram
	updates [][]gossip.Update
	digests [][]gossip.DigestEntry
}

// simDatagram is one gossip packet in flight: a recycled engine event whose
// callback is bound once, instead of a closure per packet, holding its own
// copy of the packet — a push's one update inline, anything longer in
// buffers off the runtime's free lists. It belongs to the engine from
// datagram until run returns.
type simDatagram struct {
	rt     *simRuntime
	p      gossip.Packet
	one    [1]gossip.Update
	handle func(gossip.Packet)
	fn     func() // run, bound once
}

// datagram queues a copy of p: the sending member reuses p's slices once its
// Send returns. An empty slice is carried as nil, so a datagram holds no
// buffer it did not take here.
func (rt *simRuntime) datagram(_ msg.ProcID, p gossip.Packet, delay time.Duration, handle func(gossip.Packet)) {
	var d *simDatagram
	if n := len(rt.free); n > 0 {
		d, rt.free = rt.free[n-1], rt.free[:n-1]
	} else {
		d = &simDatagram{rt: rt}
		d.fn = d.run
	}
	switch len(p.Updates) {
	case 0:
		p.Updates = nil
	case 1:
		d.one[0] = p.Updates[0]
		p.Updates = d.one[:]
	default:
		p.Updates = append(takeBuf(&rt.updates), p.Updates...)
	}
	if len(p.Digest) == 0 {
		p.Digest = nil
	} else {
		p.Digest = append(takeBuf(&rt.digests), p.Digest...)
	}
	d.p, d.handle = p, handle
	rt.Eng.After(delay, d.fn)
}

// takeBuf pops an empty buffer off a free list, nil if it has none.
func takeBuf[T any](free *[][]T) []T {
	n := len(*free)
	if n == 0 {
		return nil
	}
	b := (*free)[n-1]
	*free = (*free)[:n-1]
	return b
}

// run delivers the packet, then gives back the buffers it took, drops what
// it referenced and goes back on the free list.
func (d *simDatagram) run() {
	d.handle(d.p)
	rt := d.rt
	if len(d.p.Updates) > 1 {
		clear(d.p.Updates) // the payloads are the senders'
		rt.updates = append(rt.updates, d.p.Updates[:0])
	}
	if d.p.Digest != nil {
		rt.digests = append(rt.digests, d.p.Digest[:0])
	}
	d.p, d.one[0], d.handle = gossip.Packet{}, gossip.Update{}, nil
	rt.free = append(rt.free, d)
}

// NewSim builds a simulated cluster.
func NewSim(cfg Config) (*Sim, error) {
	cl, err := newCluster(cfg)
	if err != nil {
		return nil, err
	}
	eng := sim.New(cfg.Seed)
	cl.rt = &simRuntime{Sim: seam.NewSim(eng)}
	return &Sim{Cluster: cl, eng: eng}, nil
}

// Engine exposes the event engine (tests use it for scheduling probes).
func (s *Sim) Engine() *sim.Engine { return s.eng }
