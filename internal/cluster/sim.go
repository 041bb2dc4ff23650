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
// the simulator passes by value as plain engine events. Its free list of
// datagrams is per instance: campaign workers run several simulators at once,
// each on its own single event thread.
type simRuntime struct {
	*seam.Sim
	free []*simDatagram
}

// simDatagram is one gossip packet in flight: a recycled engine event whose
// callback is bound once, instead of a closure per packet. It belongs to the
// engine from datagram until run returns.
type simDatagram struct {
	rt     *simRuntime
	p      gossip.Packet
	handle func(gossip.Packet)
	fn     func() // run, bound once
}

func (rt *simRuntime) datagram(_ msg.ProcID, p gossip.Packet, delay time.Duration, handle func(gossip.Packet)) {
	var d *simDatagram
	if n := len(rt.free); n > 0 {
		d, rt.free = rt.free[n-1], rt.free[:n-1]
	} else {
		d = &simDatagram{rt: rt}
		d.fn = d.run
	}
	d.p, d.handle = p, handle
	rt.Eng.After(delay, d.fn)
}

// run delivers the packet, then drops what it referenced and goes back on
// the free list.
func (d *simDatagram) run() {
	d.handle(d.p)
	d.p, d.handle = gossip.Packet{}, nil
	d.rt.free = append(d.rt.free, d)
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
