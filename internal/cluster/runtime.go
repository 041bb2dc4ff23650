package cluster

import (
	"math"
	"math/rand"
	"time"

	"github.com/synergy-ft/synergy/internal/chaos"
	"github.com/synergy-ft/synergy/internal/gmdcd"
	"github.com/synergy-ft/synergy/internal/gossip"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/vtime"
)

// runtime is the seam between the cluster and the world it runs in: a clock,
// an execution discipline, an interconnect and a random source. Everything
// above it — node construction, chaos lowering, workload and tick arming,
// Start/Stop, inspection — is written once against this interface. It has
// exactly two implementations: simRuntime (sim.go) serves Sim and, through
// it, the root package's MultiSystem; liveRuntime (live.go) serves Live.
type runtime interface {
	// Now reads true time and after arms a one-shot timer on it. The
	// callback runs on node id's thread of control (the simulator has one
	// for all), holding no node.
	Now() vtime.Time
	after(id msg.ProcID, d time.Duration, fn func()) (cancel func())
	// wait lets d of true time pass (the simulator executes everything due
	// in the window).
	wait(d time.Duration)
	// hold takes the listed nodes, so nothing else touches their state
	// until release. ids are ascending — the single global order that
	// makes multi-node sections deadlock-free.
	hold(ids []msg.ProcID)
	release(ids []msg.ProcID)
	// quiesce hands a caller that already holds some node the whole
	// membership, with no FIFO ordering state left over from traffic the
	// caller is about to discard — the precondition of system-wide software
	// recovery. It reports false where the runtime cannot provide that.
	quiesce() bool
	// deliver runs fn after delay, never before an earlier delivery on the
	// same directed pair: the reliable channels' FIFO.
	deliver(from, to msg.ProcID, delay time.Duration, fn func())
	// datagram hands p to handle on node to's thread of control after delay,
	// unordered and best-effort.
	datagram(to msg.ProcID, p gossip.Packet, delay time.Duration, handle func(gossip.Packet))
	// rand is the seeded source of interconnect delays and workload gaps,
	// safe to draw from wherever the runtime runs callbacks.
	rand() *rand.Rand
	// launch starts the threads of control; halt ends them, dropping the queued.
	launch()
	halt()
}

// Nominal frame sizes handed to the chaos injector (it only uses them to
// bound corruption offsets and byte accounting).
const (
	msgFrameLen    = 64
	gossipFrameLen = 256
)

// gated runs fn holding the listed nodes unless the cluster has stopped.
func (cl *Cluster) gated(ids []msg.ProcID, fn func()) {
	if cl.closed.Load() {
		return
	}
	cl.rt.hold(ids)
	defer cl.rt.release(ids)
	if !cl.closed.Load() {
		fn()
	}
}

// nodeRuntime is one node's tb.Runtime: the cluster clock, with timer
// callbacks run holding the node.
type nodeRuntime struct{ n *cnode }

func (r nodeRuntime) Now() vtime.Time { return r.n.cl.rt.Now() }

func (r nodeRuntime) After(d time.Duration, fn func()) (cancel func()) {
	return r.n.cl.rt.after(r.n.id, d, func() { r.n.cl.gated(r.n.self, fn) })
}

// linkDelay draws one interconnect delay from [MinDelay, MaxDelay].
func (cl *Cluster) linkDelay() time.Duration {
	d := cl.cfg.MinDelay
	if span := int64(cl.cfg.MaxDelay - cl.cfg.MinDelay); span > 0 {
		d += time.Duration(cl.rt.rand().Int63n(span + 1))
	}
	return d
}

// transmit lowers one reliable-channel message onto the interconnect: seeded
// delay, chaos verdicts (a dropped or corrupted frame costs one retransmit
// delay — the channel is reliable), partition healing, and per-directed-pair
// FIFO. Delivery is epoch-gated so a recovery flush discards everything in
// flight. Called with sender state settled; never calls back synchronously.
func (cl *Cluster) transmit(m Msg) {
	if cl.closed.Load() {
		return
	}
	elapsed := time.Duration(cl.rt.Now())
	delay := cl.linkDelay()
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
	epoch := cl.epoch
	dst := cl.nodes[m.To]
	arrive := func() {
		cl.gated(dst.self, func() {
			if epoch == cl.epoch { // else flushed by a recovery in the meantime
				dst.onDeliver(m)
			}
		})
	}
	cl.rt.deliver(m.From, m.To, delay, arrive)
	if v.Duplicate {
		cl.rt.deliver(m.From, m.To, delay, arrive) // duplicate frame: FIFO queues it right behind
	}
}

// gossipTransport lowers gossip packets onto the interconnect. Gossip traffic
// is best-effort: chaos losses are final (no retransmit) and repaired by the
// epidemic's own anti-entropy, which is exactly the failure model the
// dissemination layer is built for.
type gossipTransport struct {
	cl   *Cluster
	from msg.ProcID
}

func (t gossipTransport) Send(to gossip.NodeID, p gossip.Packet) {
	cl := t.cl
	if cl.closed.Load() {
		return
	}
	dst := cl.nodes[msg.ProcID(to)]
	elapsed := time.Duration(cl.rt.Now())
	if cl.inj.Partitioned(t.from, dst.id, elapsed) {
		cl.m.gossipDrop.Inc()
		return
	}
	if v := cl.inj.FrameVerdict(t.from, dst.id, elapsed, gossipFrameLen); v.Drop || v.CorruptByte >= 0 {
		cl.m.gossipDrop.Inc()
		return
	}
	cl.rt.datagram(dst.id, p, cl.linkDelay(), func(p gossip.Packet) {
		if !cl.closed.Load() && !dst.failed.Load() {
			dst.gsp.Handle(p)
		}
	})
}

// Start arms the workload streams, every node's checkpointer and the gossip
// anti-entropy ticks, with the whole membership held so nothing fires into a
// half-armed cluster, and launches the runtime after (node loops woken earlier
// would queue on the hold). A started simulator never drains (checkpoint
// timers and ticks re-arm perpetually) — drive it with RunFor.
func (cl *Cluster) Start() {
	cl.workloadOn.Store(true)
	cl.rt.hold(cl.asg.Nodes)
	for _, c := range cl.asg.Order {
		spec := cl.specOf(c)
		cl.armStream(c, spec.InternalRate, true)
		cl.armStream(c, spec.ExternalRate, false)
	}
	for _, id := range cl.asg.Nodes {
		n := cl.nodes[id]
		n.cp.Start()
		cl.armTick(n)
	}
	cl.rt.release(cl.asg.Nodes)
	cl.rt.launch()
}

// armStream schedules a component's Poisson event stream on its first replica
// node; each event holds every replica node so active and shadow stay lockstep.
func (cl *Cluster) armStream(c gmdcd.ComponentID, rate float64, internal bool) {
	if rate <= 0 {
		return
	}
	ids := cl.targetNodes(c)
	var fire func()
	arm := func() { cl.rt.after(ids[0], expInterval(rate, cl.rt.rand()), fire) }
	fire = func() {
		if !cl.workloadOn.Load() {
			return
		}
		cl.gated(ids, func() {
			for _, id := range ids {
				n := cl.nodes[id]
				if internal {
					n.emit(n.emitInternal)
				} else {
					n.emit(n.emitExternal)
				}
			}
		})
		arm()
	}
	arm()
}

// expInterval draws an exponential inter-event gap (the workload law).
func expInterval(rate float64, rng *rand.Rand) time.Duration {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return time.Duration(-math.Log(u) / rate * float64(time.Second))
}

// armTick schedules a node's next gossip anti-entropy tick.
func (cl *Cluster) armTick(n *cnode) {
	cl.rt.after(n.id, cl.cfg.GossipInterval, func() {
		if cl.closed.Load() {
			return
		}
		if !n.failed.Load() {
			n.gsp.Tick()
		}
		cl.armTick(n)
	})
}

// RunFor lets d of true time pass: the simulator advances virtual time by d,
// executing everything due in the window; the live runtime sleeps.
func (cl *Cluster) RunFor(d time.Duration) { cl.rt.wait(d) }

// StopWorkload lets armed streams lapse; checkpointers and gossip keep
// running so in-flight acks and validations settle.
func (cl *Cluster) StopWorkload() { cl.workloadOn.Store(false) }

// Settle stops the workload and runs the post-workload quiesce window: long
// enough for in-flight messages, acks and gossip validations to drain and for
// every node to commit further stable rounds past the traffic tail.
func (cl *Cluster) Settle() {
	cl.StopWorkload()
	cl.rt.wait(6*cl.cfg.CheckpointInterval + 25*cl.cfg.MaxDelay)
}

// Stop halts workload, ticks, every checkpointer and the runtime; it is
// idempotent. Timers and deliveries still in flight observe closed and die.
// Read paths (Stats, Inspect, CheckInvariants) stay usable afterwards.
func (cl *Cluster) Stop() {
	cl.StopWorkload()
	if !cl.closed.CompareAndSwap(false, true) {
		return
	}
	cl.rt.hold(cl.asg.Nodes)
	for _, id := range cl.asg.Nodes {
		cl.nodes[id].cp.Stop()
	}
	cl.rt.release(cl.asg.Nodes)
	cl.rt.halt() // after release: a callback may be waiting for its node
}

// ChaosStats reports what the fault injector actually did.
func (cl *Cluster) ChaosStats() chaos.Stats { return cl.inj.Stats() }
