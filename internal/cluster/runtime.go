package cluster

import (
	"time"

	"github.com/synergy-ft/synergy/internal/app"
	"github.com/synergy-ft/synergy/internal/chaos"
	"github.com/synergy-ft/synergy/internal/gmdcd"
	"github.com/synergy-ft/synergy/internal/gossip"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/seam"
)

// runtime is what the cluster needs of the world it runs in: the shared
// execution seam (seam.Runtime — clock, timers whose callbacks hold their node,
// node holds, per-node randomness, Recover, FIFO Deliver) plus two things only
// the cluster has. Everything above it — node construction, chaos lowering,
// workload and tick arming, Start/Stop, software recovery, inspection — is
// written once against this interface. Sim plugs in seam.Sim, Live plugs in
// wall.Runtime; each adds its datagram.
type runtime interface {
	seam.Runtime
	// Wait lets d of true time pass (the simulator executes everything due
	// in the window).
	Wait(d time.Duration)
	// datagram hands p to handle on node to's thread of control after delay,
	// holding nothing, unordered and best-effort. It borrows p, as
	// gossip.Copier's Send does: whatever it keeps of it past the call it
	// copies. What handle receives is good for the length of the call only
	// (a Borrowed packet says so itself).
	datagram(to msg.ProcID, p gossip.Packet, delay time.Duration, handle func(gossip.Packet))
}

// Nominal frame sizes handed to the chaos injector (it only uses them to
// bound corruption offsets and byte accounting).
const (
	msgFrameLen    = 64
	gossipFrameLen = 256
)

// hold takes the listed nodes, one at a time. ids are ascending — the single
// global order that makes multi-node sections deadlock-free, owned here and
// not by each runtime — and release lets them go in reverse.
func (cl *Cluster) hold(ids []msg.ProcID) {
	for _, id := range ids {
		cl.rt.Hold(id)
	}
}

func (cl *Cluster) release(ids []msg.ProcID) {
	for i := len(ids) - 1; i >= 0; i-- {
		cl.rt.Release(ids[i])
	}
}

// gated runs fn holding the listed nodes unless the cluster has stopped.
func (cl *Cluster) gated(ids []msg.ProcID, fn func()) {
	if cl.closed.Load() {
		return
	}
	cl.hold(ids)
	defer cl.release(ids)
	if !cl.closed.Load() {
		fn()
	}
}

// linkDelay draws one interconnect delay from [MinDelay, MaxDelay] out of the
// sending node's source.
func (cl *Cluster) linkDelay(from msg.ProcID) time.Duration {
	d := cl.cfg.MinDelay
	if span := int64(cl.cfg.MaxDelay - cl.cfg.MinDelay); span > 0 {
		d += time.Duration(cl.rt.Rand(from).Int63n(span + 1))
	}
	return d
}

// transmit lowers one reliable-channel message onto the interconnect: seeded
// delay, chaos verdicts (a dropped or corrupted frame costs one retransmit
// delay — the channel is reliable), partition healing, and per-directed-pair
// FIFO. Delivery is epoch-gated so a recovery flush discards everything in
// flight. Called holding the sender with its state settled; never calls back
// synchronously. The arrival runs holding the destination.
func (cl *Cluster) transmit(m Msg) {
	if cl.closed.Load() {
		return
	}
	elapsed := time.Duration(cl.rt.Now())
	delay := cl.linkDelay(m.From)
	if cl.inj.Partitioned(m.From, m.To, elapsed) {
		if heal := cl.inj.HealAt(m.From, m.To, elapsed); heal > elapsed {
			delay += heal - elapsed
		}
	}
	v := cl.inj.FrameVerdict(m.From, m.To, elapsed, msgFrameLen)
	if v.Drop || v.CorruptByte >= 0 {
		delay += chaos.RetransmitDelay
	}
	delay += v.ExtraDelay
	cl.rt.Deliver(m.From, m.To, delay, cl.arrival(m).fn)
	if v.Duplicate {
		cl.rt.Deliver(m.From, m.To, delay, cl.arrival(m).fn) // duplicate frame: FIFO queues it right behind
	}
}

// arrival is one queued copy of a reliable-channel message: what Deliver's
// callback needs, in a value the cluster recycles instead of a closure per
// copy and per ack. It belongs to the runtime's queue from Deliver until run,
// and run gives it back — so each Deliver takes its own, a duplicate frame
// included: two queue entries sharing one would have the first run recycle
// what the second still points at.
type arrival struct {
	cl    *Cluster
	m     Msg
	epoch uint64 // the recovery epoch the copy was sent in
	fn    func() // run, bound once
}

// arrival takes a recycled (or new) arrival for m, sent now.
func (cl *Cluster) arrival(m Msg) *arrival {
	a, _ := cl.arrivals.Get().(*arrival)
	if a == nil {
		a = &arrival{cl: cl}
		a.fn = a.run
	}
	a.m, a.epoch = m, cl.epoch
	return a
}

// run is the arrival, holding the destination: the copy is read unless the
// cluster stopped or a recovery flushed what was in flight in the meantime.
func (a *arrival) run() {
	cl := a.cl
	if !cl.closed.Load() && a.epoch == cl.epoch {
		cl.nodes[a.m.To].onDeliver(a.m)
	}
	a.m = Msg{} // the pool must not pin the influence vector
	cl.arrivals.Put(a)
}

// gossipTransport lowers gossip packets onto the interconnect. Gossip traffic
// is best-effort: chaos losses are final (no retransmit) and repaired by the
// epidemic's own anti-entropy, which is exactly the failure model the
// dissemination layer is built for. It is a gossip.Copier: both runtimes'
// datagram copies what it keeps of the packet — the simulator its two slices,
// the live runtime the encoded frame.
type gossipTransport struct {
	cl   *Cluster
	from msg.ProcID
}

func (gossipTransport) CopiesOnSend() {}

func (t gossipTransport) Send(to gossip.NodeID, p gossip.Packet) {
	cl := t.cl
	if cl.closed.Load() {
		return
	}
	dst := cl.nodes[msg.ProcID(to)]
	elapsed := time.Duration(cl.rt.Now())
	if cl.inj.Partitioned(t.from, dst.id, elapsed) {
		cl.cnt.gossipDropped.Add(1)
		return
	}
	if v := cl.inj.FrameVerdict(t.from, dst.id, elapsed, gossipFrameLen); v.Drop || v.CorruptByte >= 0 {
		cl.cnt.gossipDropped.Add(1)
		return
	}
	cl.rt.datagram(dst.id, p, cl.linkDelay(t.from), dst.onPacket)
}

// Start arms the workload streams, every node's checkpointer and the gossip
// anti-entropy ticks, with the whole membership held so nothing fires into a
// half-armed cluster. A started simulator never drains (checkpoint timers and
// ticks re-arm perpetually) — drive it with RunFor.
func (cl *Cluster) Start() {
	cl.workloadOn.Store(true)
	cl.hold(cl.asg.Nodes)
	for _, spec := range cl.cfg.Topology.Components { // asg.Order
		cl.armStream(spec.ID, spec.InternalRate, true)
		cl.armStream(spec.ID, spec.ExternalRate, false)
	}
	for _, id := range cl.asg.Nodes {
		n := cl.nodes[id]
		n.cp.Start()
		cl.armTick(n)
	}
	cl.release(cl.asg.Nodes)
}

// armStream schedules a component's Poisson event stream on its first replica
// node, which each firing therefore holds; it takes the other replica too, so
// active and shadow stay lockstep.
func (cl *Cluster) armStream(c gmdcd.ComponentID, rate float64, internal bool) {
	if rate <= 0 {
		return
	}
	ids := cl.targetNodes(c)
	var fire func()
	arm := func() { cl.rt.After(ids[0], app.ExpGap(rate, cl.rt.Rand(ids[0])), fire) }
	fire = func() {
		if !cl.workloadOn.Load() {
			return
		}
		cl.hold(ids[1:])
		for _, id := range ids {
			n := cl.nodes[id]
			if internal {
				n.emit(n.internalFn)
			} else {
				n.emit(n.externalFn)
			}
		}
		cl.release(ids[1:])
		arm()
	}
	arm()
}

// armTick schedules a node's next gossip anti-entropy tick.
func (cl *Cluster) armTick(n *cnode) { cl.rt.After(n.id, cl.cfg.GossipInterval, n.tickFn) }

// tick is a node's anti-entropy tick, which arms the next one.
func (n *cnode) tick() {
	if n.cl.closed.Load() {
		return
	}
	if !n.failed.Load() {
		n.gsp.Tick()
	}
	n.cl.armTick(n)
}

// RunFor lets d of true time pass: the simulator advances virtual time by d,
// executing everything due in the window; the live runtime sleeps.
func (cl *Cluster) RunFor(d time.Duration) { cl.rt.Wait(d) }

// StopWorkload lets armed streams lapse; checkpointers and gossip keep
// running so in-flight acks and validations settle.
func (cl *Cluster) StopWorkload() { cl.workloadOn.Store(false) }

// Settle stops the workload and runs the post-workload quiesce window: long
// enough for in-flight messages, acks and gossip validations to drain and for
// every node to commit further stable rounds past the traffic tail.
func (cl *Cluster) Settle() {
	cl.StopWorkload()
	cl.rt.Wait(6*cl.cfg.CheckpointInterval + 25*cl.cfg.MaxDelay)
}

// Stop halts workload, ticks and every checkpointer; it is idempotent. Timers
// and deliveries still in flight observe closed and die. Read paths (Stats,
// Inspect, CheckInvariants) stay usable afterwards.
func (cl *Cluster) Stop() {
	cl.StopWorkload()
	if !cl.closed.CompareAndSwap(false, true) {
		return
	}
	cl.hold(cl.asg.Nodes)
	for _, id := range cl.asg.Nodes {
		cl.nodes[id].cp.Stop()
	}
	cl.release(cl.asg.Nodes)
}

// ChaosStats reports what the fault injector actually did.
func (cl *Cluster) ChaosStats() chaos.Stats { return cl.inj.Stats() }
