package cluster

import (
	"fmt"
	"sync"
	"time"

	"github.com/synergy-ft/synergy/internal/gossip"
	"github.com/synergy-ft/synergy/internal/invariant"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/seam/wall"
)

// Live is a cluster on the wall clock (wall.Runtime): every node has one
// event loop that runs its timers, its reliable-channel deliveries and,
// across the encoded wire format, its gossip packets; node state is
// serialized by a per-node lock, since lockstep stream events and
// whole-membership sections — reads, software error recovery — span nodes.
// Live mode validates the concurrency story the simulator cannot (lock
// ordering, timer races, codec round-trips) at 10 nodes.
type Live struct {
	*Cluster
	rt *wall.Runtime
}

// liveRuntime is the wall-clock runtime plus the cluster's gossip datagrams.
type liveRuntime struct {
	*wall.Runtime
	datagrams sync.Pool // *datagram
}

// datagram is one gossip packet in flight across the real codec: the encoded
// frame, the scratch it is decoded into on arrival, and where it goes — in a
// value the runtime recycles, its loop callback bound once, instead of a
// closure around a fresh decode per packet. It belongs to the destination's
// loop from Post until run returns.
type datagram struct {
	rt     *liveRuntime
	frame  []byte
	pkt    gossip.Packet // decode scratch: borrows frame, keeps its slices
	to     msg.ProcID
	handle func(gossip.Packet)
	fn     func() // run, bound once
}

// What a recycled datagram may hold on to: room for the largest digest and
// delta of ten members with the cluster's two update kinds — twenty entries,
// and twenty updates of which ten are 7-component passed-AT vectors (82 B)
// and ten resync beacons (8 B), a 1.2 KB frame. One that carried more, in a
// larger membership, is left to the collector: a pool's worth of those would
// pin memory that every later single-update push drags along.
const (
	keepFrameCap   = 1280
	keepUpdatesCap = 10 * 2
	keepDigestCap  = 10 * 2
)

// datagram ships the packet through the real codec. Chaos corruption became a
// drop before encoding, so a frame that does not decode is a bug, not loss.
func (rt *liveRuntime) datagram(to msg.ProcID, p gossip.Packet, delay time.Duration, handle func(gossip.Packet)) {
	d, _ := rt.datagrams.Get().(*datagram)
	if d == nil {
		d = &datagram{rt: rt}
		d.fn = d.run
	}
	d.frame = gossip.EncodePacket(d.frame[:0], p)
	d.to, d.handle = to, handle
	rt.Post(to, delay, d.fn)
}

// run is the arrival on the destination's loop: handle sees the frame decoded
// in place — it copies what it keeps — and the datagram goes back to the pool.
func (d *datagram) run() {
	if err := gossip.DecodeBorrowed(&d.pkt, d.frame); err != nil {
		panic(fmt.Sprintf("cluster: gossip frame to node %d does not decode: %v", d.to, err))
	}
	d.handle(d.pkt)
	d.handle = nil
	if cap(d.frame) > keepFrameCap || cap(d.pkt.Updates) > keepUpdatesCap || cap(d.pkt.Digest) > keepDigestCap {
		return
	}
	d.rt.datagrams.Put(d)
}

// NewLive builds a live cluster on running node loops; Start arms it.
func NewLive(cfg Config) (*Live, error) {
	cl, err := newCluster(cfg)
	if err != nil {
		return nil, err
	}
	rt := wall.New(cfg.Seed, cl.asg.Nodes)
	cl.rt = &liveRuntime{Runtime: rt}
	return &Live{Cluster: cl, rt: rt}, nil
}

// Stop stops the cluster, then ends the node loops and waits for them (never
// call it from a loop callback). It is idempotent.
func (lv *Live) Stop() {
	lv.Cluster.Stop()
	lv.rt.Stop()
}

// SampleInvariants is CheckInvariants under the name the live benchmark
// harness calls.
func (lv *Live) SampleInvariants() (round uint64, violations, absorbed []invariant.Violation, err error) {
	return lv.CheckInvariants()
}
