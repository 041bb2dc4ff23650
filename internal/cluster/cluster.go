// Package cluster lowers the generalized guarded-operation protocol (package
// gmdcd) onto an N-node system coordinated with time-based checkpointing
// (package tb) — the paper's synergy beyond the fixed three-process
// architecture. A configuration-driven gmdcd.Topology is assigned one node
// per replica: every component gets an active node and every guarded
// component additionally a shadow node. Each node runs
//
//   - the generalized MDCD bookkeeping: per-guarded-origin influence/valid
//     vectors, hop-by-hop suspicion stamping, Type-1/pseudo volatile
//     checkpoints, confidence-adaptive local recovery;
//   - its own tb.Checkpointer on its own drifting local clock: stable
//     checkpoints every Δ whose contents are chosen by the node's dirty
//     state, blocking periods that hold application messages, and an
//     unacknowledged-message log fed by per-channel acks;
//   - a gossip.Node: passed-AT validation vectors and timer-resync beacons
//     ride the seeded epidemic dissemination layer instead of an all-to-all
//     broadcast, keeping per-node coordination fan-in O(fanout·rounds)
//     instead of O(N).
//
// Recovery lines are sampled over the whole membership: the highest stable
// round every live node has committed, checked with the dedup-aware
// invariant rules over the lowered topology's channel set (DESIGN §16).
//
// One runner drives the protocol core over the shared execution seam
// (internal/seam; runtime.go adds the cluster's two extensions): Sim plugs in
// the deterministic discrete-event engine (identical transcripts per seed,
// used at 50 and 100 nodes, and the engine under the root package's
// MultiSystem façade), and Live plugs in the wall clock, one event loop per
// node and the encoded gossip wire format at 10 nodes under chaos. Software
// error recovery runs on both.
package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/synergy-ft/synergy/internal/at"
	"github.com/synergy-ft/synergy/internal/chaos"
	"github.com/synergy-ft/synergy/internal/gmdcd"
	"github.com/synergy-ft/synergy/internal/gossip"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/obs"
	"github.com/synergy-ft/synergy/internal/tb"
	"github.com/synergy-ft/synergy/internal/vtime"
)

// BaseNodeID is the first cluster node identity. Node IDs grow upward from
// here, leaving the three-process architecture's reserved IDs (P1act, P1sdw,
// P2, Device) untouched so chaos specs and checkpoints share one ProcID
// space.
const BaseNodeID msg.ProcID = 10

// maxNodeID bounds the assignable range (ProcID is uint8).
const maxNodeID = 250

// Assignment maps a lowered topology's components onto cluster nodes.
type Assignment struct {
	// Active maps each component to its active replica's node.
	Active map[gmdcd.ComponentID]msg.ProcID
	// Shadow maps each guarded component to its shadow replica's node.
	Shadow map[gmdcd.ComponentID]msg.ProcID
	// CompOf maps each node back to its component.
	CompOf map[msg.ProcID]gmdcd.ComponentID
	// IsShadow marks shadow nodes.
	IsShadow map[msg.ProcID]bool
	// Nodes lists every node in ascending ID order.
	Nodes []msg.ProcID
	// Order lists the components in topology order.
	Order []gmdcd.ComponentID
}

// Assign lowers a topology onto node identities: components in declared
// order, active first, shadow (guarded only) immediately after, starting at
// BaseNodeID. The assignment is a pure function of the topology, so scenario
// specs can name nodes ("C3", "C3s") without a side channel.
func Assign(t gmdcd.Topology) (Assignment, error) {
	if err := t.Validate(); err != nil {
		return Assignment{}, err
	}
	a := Assignment{
		Active:   make(map[gmdcd.ComponentID]msg.ProcID),
		Shadow:   make(map[gmdcd.ComponentID]msg.ProcID),
		CompOf:   make(map[msg.ProcID]gmdcd.ComponentID),
		IsShadow: make(map[msg.ProcID]bool),
	}
	next := BaseNodeID
	grab := func(c gmdcd.ComponentID, shadow bool) error {
		if next > maxNodeID {
			return fmt.Errorf("cluster: topology needs more than %d nodes", maxNodeID-BaseNodeID+1)
		}
		id := next
		next++
		a.CompOf[id] = c
		a.IsShadow[id] = shadow
		a.Nodes = append(a.Nodes, id)
		if shadow {
			a.Shadow[c] = id
		} else {
			a.Active[c] = id
		}
		return nil
	}
	for _, spec := range t.Components {
		a.Order = append(a.Order, spec.ID)
		if err := grab(spec.ID, false); err != nil {
			return Assignment{}, err
		}
		if spec.Guarded {
			if err := grab(spec.ID, true); err != nil {
				return Assignment{}, err
			}
		}
	}
	return a, nil
}

// Ring builds an n-component ring topology (each component sends to its
// successor) with the first guarded components under guarded operation, all
// driven at the given workload rates. It is the canonical cluster shape the
// specs and benchmarks use.
func Ring(n, guarded int, internalRate, externalRate float64, test at.Test) gmdcd.Topology {
	comps := make([]gmdcd.ComponentSpec, n)
	for i := 0; i < n; i++ {
		comps[i] = gmdcd.ComponentSpec{
			ID:           gmdcd.ComponentID(i + 1),
			Guarded:      i < guarded,
			Peers:        []gmdcd.ComponentID{gmdcd.ComponentID((i+1)%n + 1)},
			InternalRate: internalRate,
			ExternalRate: externalRate,
		}
	}
	return gmdcd.Topology{Components: comps, Test: test}
}

// Config assembles a cluster.
type Config struct {
	// Topology is the component graph to lower onto nodes.
	Topology gmdcd.Topology
	// Seed drives every random decision (workload, delays, gossip peer
	// selection, clock drift).
	Seed int64
	// MinDelay and MaxDelay bound interconnect delivery (tmin, tmax).
	MinDelay, MaxDelay time.Duration
	// CheckpointInterval is Δ, each node's stable-checkpoint period.
	CheckpointInterval time.Duration
	// Clock models the nodes' local timers (δ and ρ).
	Clock vtime.ClockConfig
	// Fanout and GossipRounds parameterize the epidemic (gossip defaults
	// apply when zero).
	Fanout, GossipRounds int
	// GossipInterval is the anti-entropy tick period (default 8·MaxDelay).
	GossipInterval time.Duration
	// Chaos injects interconnect faults (drop, duplicate, jitter,
	// partitions). Crash/disk schedules are not lowered to clusters.
	Chaos chaos.Spec
	// Obs receives cluster metrics (nil disables).
	Obs *obs.Registry
}

// withDefaults fills zero knobs.
func (c Config) withDefaults() Config {
	if c.CheckpointInterval == 0 {
		c.CheckpointInterval = 50 * time.Millisecond
	}
	if c.MaxDelay == 0 {
		c.MaxDelay = 2 * time.Millisecond
	}
	if c.Clock == (vtime.ClockConfig{}) {
		c.Clock = vtime.ClockConfig{MaxDeviation: 500 * time.Microsecond, DriftRate: 50e-6}
	}
	if c.GossipInterval <= 0 {
		c.GossipInterval = 8 * c.MaxDelay
	}
	return c
}

// tbConfig derives each node's checkpointer configuration: always the adapted
// variant, since coordinating with MDCD is the whole point of the cluster.
func (c Config) tbConfig() tb.Config {
	return tb.Config{
		Variant:  tb.Adapted,
		Interval: c.CheckpointInterval,
		Clock:    c.Clock,
		MinDelay: c.MinDelay,
		MaxDelay: c.MaxDelay,
	}
}

// validate rejects configurations the runner does not support.
func (c Config) validate() error {
	if err := c.Topology.Validate(); err != nil {
		return err
	}
	if c.MinDelay < 0 || c.MaxDelay < c.MinDelay {
		return fmt.Errorf("cluster: invalid delay bounds [%v, %v]", c.MinDelay, c.MaxDelay)
	}
	if err := c.tbConfig().Validate(); err != nil {
		return err
	}
	if err := c.Chaos.Validate(); err != nil {
		return err
	}
	if len(c.Chaos.Crashes) > 0 || len(c.Chaos.FsyncStalls) > 0 || len(c.Chaos.DiskFaults) > 0 {
		return fmt.Errorf("cluster: crash/fsync/disk chaos is not lowered to clusters (partitions and frame faults only)")
	}
	return nil
}

// Stats aggregates a run's protocol activity across the membership.
type Stats struct {
	// ATsPassed counts successful acceptance tests.
	ATsPassed int
	// Recoveries, Takeovers, Rollbacks, RollForwards, ForcedRollbacks
	// count software error recovery activity (gmdcd semantics).
	Recoveries, Takeovers, Rollbacks, RollForwards, ForcedRollbacks int
	// MsgsSent and MsgsDelivered count reliable-channel app messages.
	MsgsSent, MsgsDelivered uint64
	// AcksDelivered counts per-channel acknowledgements consumed.
	AcksDelivered uint64
	// HeldMessages counts deliveries parked by blocking periods.
	HeldMessages uint64
	// DupsDiscarded counts ChanSeq duplicate discards (with re-ack).
	DupsDiscarded uint64
	// Validations counts passed-AT vectors applied from gossip.
	Validations uint64
	// StaleValidations counts passed-AT vectors discarded for belonging
	// to a flushed recovery epoch.
	StaleValidations uint64
	// Resyncs counts local clock resynchronizations applied.
	Resyncs uint64
	// ResyncBeacons counts resync beacons originated.
	ResyncBeacons uint64
	// StableCommits sums committed stable rounds across nodes.
	StableCommits uint64
	// StableReplaces sums in-blocking abort-and-replace adjustments.
	StableReplaces uint64
	// Gossip sums the dissemination-layer counters across nodes.
	Gossip gossip.Stats
	// GossipDropped counts gossip packets lost to chaos: never
	// retransmitted, repaired by anti-entropy.
	GossipDropped uint64
	// MaxFanIn is the worst per-node dissemination fan-in: update copies
	// received divided by updates broadcast anywhere — the quantity the
	// O(fanout·rounds) expectation bounds.
	MaxFanIn float64
}

// Cluster is the N-node assembly: the lowered membership, the protocol core
// its nodes run, and the one runner that drives them over a runtime. Sim and
// Live are this type with a runtime chosen.
type Cluster struct {
	cfg   Config
	asg   Assignment
	comps slots
	// nodes is indexed by node ID (a uint8; nil where no node is assigned).
	nodes [256]*cnode
	// targets lists each slot's replica nodes: active, then shadow.
	targets [][]msg.ProcID
	epoch   uint64
	cnt     counters

	// sentKeys and streamKeys name, in ascending node order, the node keys a
	// stable write lowers slot-indexed counters onto: every node under its
	// component's slot (a sender's per-component counter is kept for both
	// replicas), and the actives alone (a stream is keyed by its active).
	sentKeys, streamKeys []counterKey

	rt  runtime
	inj *chaos.Injector
	// arrivals recycles transmit's queued copies (*arrival).
	arrivals sync.Pool

	closed     atomic.Bool
	workloadOn atomic.Bool
}

// newCluster assembles a cluster — every node gets its own seeded generator,
// drifting clock, checkpointer and gossip member — for the caller to put on a
// runtime (rt) built for its membership; nothing here calls the runtime yet.
func newCluster(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	asg, err := Assign(cfg.Topology)
	if err != nil {
		return nil, err
	}
	comps := newSlots(asg.Order...)
	cl := &Cluster{
		cfg:     cfg,
		asg:     asg,
		comps:   comps,
		targets: make([][]msg.ProcID, len(comps.ids)),
	}
	cfg.Obs.Gauge("synergy_cluster_nodes", "Cluster membership size (replica nodes).").Set(float64(len(asg.Nodes)))
	cfg.Obs.CounterFunc("synergy_cluster_gossip_dropped_total",
		"Gossip packets lost to chaos (no retransmit; anti-entropy repairs).", cl.cnt.gossipDropped.Load)
	if cl.inj, err = chaos.NewInjector(cfg.Chaos); err != nil {
		return nil, err
	}
	members := make([]gossip.NodeID, 0, len(asg.Nodes))
	for _, id := range asg.Nodes {
		members = append(members, gossip.NodeID(id))
	}
	specs := make([]gmdcd.ComponentSpec, len(comps.ids)) // by slot
	for _, spec := range cfg.Topology.Components {
		specs[comps.of(spec.ID)] = spec
	}
	for _, id := range asg.Nodes {
		slot := comps.of(asg.CompOf[id])
		cl.targets[slot] = append(cl.targets[slot], id) // ascending: active, then shadow
		n := newNode(cl, id, specs[slot], asg.IsShadow[id])
		n.clock = vtime.NewClock(cfg.Clock,
			rand.New(rand.NewSource(mixSeed(cfg.Seed, uint64(id)^0xC10C))))
		n.cp, err = tb.NewCheckpointer(id, cfg.tbConfig(), n.clock, n, stableHost(n), nil)
		if err != nil {
			return nil, err
		}
		// Keep every round the membership-wide line could still sample.
		n.cp.Pin = func() uint64 { return cl.lowestRound(n) }
		n.cp.OnResyncRequest = func() { cl.requestResync(n) }
		n.gsp = gossip.New(gossip.Config{
			ID:        gossip.NodeID(id),
			Members:   members,
			Fanout:    cfg.Fanout,
			Rounds:    cfg.GossipRounds,
			Seed:      cfg.Seed,
			Transport: gossipTransport{cl: cl, from: id},
			Deliver: func(u gossip.Update) { // gated, without a closure per update
				if cl.closed.Load() {
					return
				}
				cl.rt.Hold(id)
				if !cl.closed.Load() {
					cl.onGossipDeliver(n, u)
				}
				cl.rt.Release(id)
			},
		})
		n.onPacket = func(p gossip.Packet) {
			if !cl.closed.Load() && !n.failed.Load() {
				n.gsp.Handle(p)
			}
		}
		cl.nodes[id] = n
		cl.sentKeys = append(cl.sentKeys, counterKey{id, slot})
		if !asg.IsShadow[id] {
			cl.streamKeys = append(cl.streamKeys, counterKey{id, slot})
		}
	}
	return cl, nil
}

// counterKey is one node key of a stable write's counter sets: node id,
// carrying the counter at slot.
type counterKey struct {
	id   msg.ProcID
	slot int
}

// Assignment exposes the component→node lowering.
func (cl *Cluster) Assignment() Assignment { return cl.asg }

// Nodes returns the membership size.
func (cl *Cluster) Nodes() int { return len(cl.asg.Nodes) }

// liveNode returns a component's live embodiment: the promoted shadow after
// a takeover, the active otherwise (nil if the component has wholly failed or
// is not in the topology).
func (cl *Cluster) liveNode(c gmdcd.ComponentID) *cnode {
	if sid, ok := cl.asg.Shadow[c]; ok {
		if sdw := cl.nodes[sid]; sdw.promoted && !sdw.failed.Load() {
			return sdw
		}
	}
	if act := cl.nodes[cl.asg.Active[c]]; act != nil && !act.failed.Load() {
		return act
	}
	return nil
}

// replicasOf returns a component's non-failed replicas, active first.
func (cl *Cluster) replicasOf(c gmdcd.ComponentID) []*cnode {
	var out []*cnode
	for _, id := range cl.targetNodes(c) {
		if n := cl.nodes[id]; !n.failed.Load() {
			out = append(out, n)
		}
	}
	return out
}

// counters is the internal race-free form of Stats: live-mode nodes update
// these under different per-node locks, so every shared counter is atomic.
type counters struct {
	atsPassed, recoveries, takeovers         atomic.Int64
	rollbacks, rollForwards, forcedRollbacks atomic.Int64

	msgsSent, msgsDelivered, acks, held, dups atomic.Uint64
	validations, staleValidations             atomic.Uint64
	resyncs, resyncBeacons                    atomic.Uint64
	gossipDropped                             atomic.Uint64
}

// Stats samples the aggregate counters with the whole membership held.
func (cl *Cluster) Stats() Stats {
	cl.hold(cl.asg.Nodes)
	defer cl.release(cl.asg.Nodes)
	return cl.stats()
}

// stats aggregates the current counters across the membership (callers hold
// every node).
func (cl *Cluster) stats() Stats {
	st := Stats{
		ATsPassed:        int(cl.cnt.atsPassed.Load()),
		Recoveries:       int(cl.cnt.recoveries.Load()),
		Takeovers:        int(cl.cnt.takeovers.Load()),
		Rollbacks:        int(cl.cnt.rollbacks.Load()),
		RollForwards:     int(cl.cnt.rollForwards.Load()),
		ForcedRollbacks:  int(cl.cnt.forcedRollbacks.Load()),
		MsgsSent:         cl.cnt.msgsSent.Load(),
		MsgsDelivered:    cl.cnt.msgsDelivered.Load(),
		AcksDelivered:    cl.cnt.acks.Load(),
		HeldMessages:     cl.cnt.held.Load(),
		DupsDiscarded:    cl.cnt.dups.Load(),
		Validations:      cl.cnt.validations.Load(),
		StaleValidations: cl.cnt.staleValidations.Load(),
		Resyncs:          cl.cnt.resyncs.Load(),
		ResyncBeacons:    cl.cnt.resyncBeacons.Load(),
		GossipDropped:    cl.cnt.gossipDropped.Load(),
	}
	var totalOriginated uint64
	perNode := make([]gossip.Stats, 0, len(cl.asg.Nodes))
	for _, id := range cl.asg.Nodes {
		n := cl.nodes[id]
		st.StableCommits += n.cp.Stable.Commits()
		st.StableReplaces += n.cp.Stable.Replaces()
		gs := n.gsp.Stats()
		perNode = append(perNode, gs)
		totalOriginated += gs.Originated
		st.Gossip.Originated += gs.Originated
		st.Gossip.PacketsSent += gs.PacketsSent
		st.Gossip.PacketsRecv += gs.PacketsRecv
		st.Gossip.UpdatesRecv += gs.UpdatesRecv
		st.Gossip.Delivered += gs.Delivered
		st.Gossip.Duplicates += gs.Duplicates
		st.Gossip.DigestsSent += gs.DigestsSent
		st.Gossip.DigestsRecv += gs.DigestsRecv
		st.Gossip.Repairs += gs.Repairs
	}
	if totalOriginated > 0 {
		for _, gs := range perNode {
			if f := float64(gs.UpdatesRecv) / float64(totalOriginated); f > st.MaxFanIn {
				st.MaxFanIn = f
			}
		}
	}
	return st
}

// slots ranks a topology's components: a component's slot is its rank in
// ascending ID order, fixed at construction. Every per-component counter
// vector (influence, valid, the channel sequences, Msg.Influence) is a
// []uint64 indexed by slot in which ZERO MEANS ABSENT — every SN and channel
// sequence starts at 1 — so a walk in slot order that skips zeros visits the
// entries, sorted, that the wire and checkpoint encodings are defined over.
type slots struct {
	// ids lists the components by slot, in ascending ID order.
	ids []gmdcd.ComponentID
	// index maps a component ID, up to the largest in the topology, to its
	// slot: -1 for an ID outside the topology.
	index []int32
}

// newSlots ranks the components ids names.
func newSlots(ids ...gmdcd.ComponentID) slots {
	s := slots{ids: slices.Clone(ids)}
	slices.Sort(s.ids)
	if len(s.ids) > 0 {
		s.index = make([]int32, int(s.ids[len(s.ids)-1])+1)
	}
	for i := range s.index {
		s.index[i] = -1
	}
	for slot, c := range s.ids {
		s.index[c] = int32(slot)
	}
	return s
}

// of returns c's slot, or -1 for a component outside the topology.
func (s slots) of(c gmdcd.ComponentID) int {
	if int(c) < len(s.index) {
		return int(s.index[c])
	}
	return -1
}

// mergeVec raises dst entries to src's where src is higher.
func mergeVec(dst, src []uint64) {
	for i, v := range src {
		if v > dst[i] {
			dst[i] = v
		}
	}
}

// mixSeed derives a stream-specific seed (splitmix64 over seed ^ salt), the
// construction every seeded layer of the repo shares.
func mixSeed(seed int64, salt uint64) int64 {
	z := uint64(seed) ^ salt
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
