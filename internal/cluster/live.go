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
	frames sync.Pool // *[]byte: encoded gossip frames in flight
}

// datagram ships the packet through the real codec. Chaos corruption became a
// drop before encoding, so a frame that does not decode is a bug, not loss.
func (rt *liveRuntime) datagram(to msg.ProcID, p gossip.Packet, delay time.Duration, handle func(gossip.Packet)) {
	frame, _ := rt.frames.Get().(*[]byte)
	if frame == nil {
		frame = new([]byte)
	}
	*frame = gossip.EncodePacket((*frame)[:0], p)
	rt.Post(to, delay, func() {
		pkt, err := gossip.DecodePacket(*frame) // copies every payload it keeps
		rt.frames.Put(frame)
		if err != nil {
			panic(fmt.Sprintf("cluster: gossip frame to node %d does not decode: %v", to, err))
		}
		handle(pkt)
	})
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
