package cluster

import (
	"fmt"

	"github.com/synergy-ft/synergy/internal/checkpoint"
	"github.com/synergy-ft/synergy/internal/gmdcd"
	"github.com/synergy-ft/synergy/internal/gossip"
	"github.com/synergy-ft/synergy/internal/invariant"
	"github.com/synergy-ft/synergy/internal/msg"
)

// onGossipDeliver dispatches one gossip delivery to a node: the newest
// passed-AT vector or resync beacon of its origin so far, which covers every
// one before it.
func (cl *Cluster) onGossipDeliver(n *cnode, u gossip.Update) {
	switch u.Kind {
	case updPassedAT:
		epoch, _, raises, err := readPassedAT(u.Payload, cl.comps, n.valid, n.raises[:0])
		n.raises = raises
		if err != nil {
			return
		}
		if epoch != cl.epoch {
			// Anti-entropy redelivered a validation of stream positions
			// a software recovery has since discarded.
			cl.cnt.staleValidations.Add(1)
			return
		}
		n.onValidated(raises)
	case updResync:
		if _, err := decodeResync(u.Payload); err != nil {
			return
		}
		n.clock.Resynchronize(cl.rt.Now(), n.rng)
		n.cp.NoteResynced()
		cl.cnt.resyncs.Add(1)
	}
}

// requestResync handles a node's OnResyncRequest: the requester
// resynchronizes immediately and originates a beacon; every other node
// resynchronizes when the epidemic reaches it — O(fanout) coordination
// fan-in per node instead of an all-to-all exchange.
func (cl *Cluster) requestResync(n *cnode) {
	cl.cnt.resyncBeacons.Add(1)
	n.clock.Resynchronize(cl.rt.Now(), n.rng)
	n.cp.NoteResynced()
	cl.cnt.resyncs.Add(1)
	n.gsp.Broadcast(updResync, encodeResync(cl.epoch))
}

// recoveryLine samples the membership-wide recovery line: the highest stable
// round every live node has committed, each node's retained checkpoint for
// it, the lowered topology's channel set, and the live counter evidence the
// dedup-aware consistency rule consults. It returns the line, the common
// round, and false while any live node has not committed a round. Callers
// hold every node.
func (cl *Cluster) recoveryLine() (invariant.Line, uint64, bool) {
	round := cl.lowestRound(nil)
	if round == 0 || round == noRound {
		return invariant.Line{}, 0, false
	}
	line := invariant.Line{
		Ckpts:    make(map[msg.ProcID]*checkpoint.Checkpoint, len(cl.asg.Nodes)),
		Topology: cl.channels(),
		Live:     cl.evidence(),
	}
	for _, id := range cl.asg.Nodes {
		if n := cl.nodes[id]; !n.failed.Load() {
			cp, err := n.cp.StableAtRound(round)
			if err != nil {
				return invariant.Line{}, round, false
			}
			line.Ckpts[n.id] = cp
		}
	}
	return line, round, true
}

// noRound is lowestRound's answer when no node constrains the round.
const noRound = ^uint64(0)

// lowestRound returns the lowest round committed by a non-failed node other
// than skip. It reads only what the other nodes publish, so a node holding
// just itself may call it (its checkpointer's Pin does).
func (cl *Cluster) lowestRound(skip *cnode) uint64 {
	round := noRound
	for _, id := range cl.asg.Nodes {
		if n := cl.nodes[id]; n != skip && !n.failed.Load() {
			round = min(round, n.cp.Committed())
		}
	}
	return round
}

// channels builds the invariant channel set from the lowered topology and
// the current promotion state: for every component, its live embodiment is
// the sender toward every non-failed replica of every peer, with the
// component's active node as the shared stream key.
func (cl *Cluster) channels() []invariant.Channel {
	var out []invariant.Channel
	for _, c := range cl.asg.Order {
		s := cl.liveNode(c)
		if s == nil {
			continue
		}
		key := cl.asg.Active[c]
		for _, peer := range s.spec.Peers {
			for _, r := range cl.replicasOf(peer) {
				out = append(out, invariant.Channel{Sender: s.id, Receiver: r.id, StreamKey: key})
			}
		}
	}
	return out
}

// evidence snapshots the live protocol counters for the dedup-aware rules.
func (cl *Cluster) evidence() *invariant.Evidence {
	ev := &invariant.Evidence{
		Sent:    make(map[msg.ProcID]map[msg.ProcID]uint64),
		Recv:    make(map[msg.ProcID]map[msg.ProcID]uint64),
		Unacked: make(map[msg.ProcID]map[msg.ProcID][]uint64),
	}
	for _, c := range cl.asg.Order {
		if s := cl.liveNode(c); s != nil {
			sent := make(map[msg.ProcID]uint64)
			un := make(map[msg.ProcID][]uint64)
			for _, peer := range s.spec.Peers {
				slot := cl.comps.of(peer)
				for _, t := range cl.targets[slot] {
					sent[t] = s.sentSeq[slot]
				}
			}
			s.cp.EachUnacked(func(m msg.Message) { un[m.To] = append(un[m.To], m.ChanSeq) })
			ev.Sent[s.id] = sent
			ev.Unacked[s.id] = un
		}
		for _, r := range cl.replicasOf(c) {
			recv := make(map[msg.ProcID]uint64)
			for origin, seq := range r.recvSeq {
				if seq != 0 {
					recv[cl.targets[origin][0]] = seq
				}
			}
			ev.Recv[r.id] = recv
		}
	}
	return ev
}

// CheckInvariants samples the recovery line with the whole membership held
// and evaluates it, returning the common round, real violations, and
// dedup-absorbed transients. An error means no line was sampleable.
func (cl *Cluster) CheckInvariants() (round uint64, violations, absorbed []invariant.Violation, err error) {
	cl.hold(cl.asg.Nodes)
	line, round, ok := cl.recoveryLine()
	cl.release(cl.asg.Nodes)
	if !ok {
		return round, nil, nil, fmt.Errorf("cluster: no common committed round to sample (round=%d)", round)
	}
	violations, absorbed = line.CheckDetailed()
	return round, violations, absorbed, nil
}

// Inspection is one quiesced snapshot of a cluster run, everything a report
// evaluator needs in a single read (taken with every node held, so one call
// means one consistent cut).
type Inspection struct {
	// Stats is the aggregate counter snapshot.
	Stats Stats
	// StableRounds maps each non-failed node to its committed stable rounds.
	StableRounds map[msg.ProcID]uint64
	// Line, Round and LineOK are the membership-wide recovery line sample.
	Line   invariant.Line
	Round  uint64
	LineOK bool
	// Active maps each component to its live embodiment (absent if the
	// component has wholly failed).
	Active map[gmdcd.ComponentID]msg.ProcID
	// Converged reports whether every component's surviving replicas hold
	// identical application states (meaningful only after quiescing).
	Converged bool
	// FanInBound is the dissemination bound fanout·rounds that MaxFanIn is
	// measured against (resolved gossip defaults included).
	FanInBound float64
}

// Inspect takes the snapshot with the whole membership held.
func (cl *Cluster) Inspect() Inspection {
	cl.hold(cl.asg.Nodes)
	defer cl.release(cl.asg.Nodes)
	return cl.inspect()
}

func (cl *Cluster) inspect() Inspection {
	ins := Inspection{
		Stats:        cl.stats(),
		StableRounds: make(map[msg.ProcID]uint64),
		Active:       make(map[gmdcd.ComponentID]msg.ProcID),
		Converged:    true,
	}
	ins.Line, ins.Round, ins.LineOK = cl.recoveryLine()
	for _, id := range cl.asg.Nodes {
		n := cl.nodes[id]
		if ins.FanInBound == 0 {
			ins.FanInBound = float64(n.gsp.Fanout() * n.gsp.Rounds())
		}
		if !n.failed.Load() {
			ins.StableRounds[id] = n.cp.Ndc()
		}
	}
	for _, c := range cl.asg.Order {
		if live := cl.liveNode(c); live != nil {
			ins.Active[c] = live.id
		}
		reps := cl.replicasOf(c)
		for i := 1; i < len(reps); i++ {
			if !reps[i].state.Equal(reps[0].state) {
				ins.Converged = false
			}
		}
	}
	return ins
}

// Replica is a read-only snapshot of one replica, for the root package's
// MultiSystem façade and demos.
type Replica struct {
	// Promoted reports a shadow that took over.
	Promoted bool
	// Dirty reports whether the state is potentially contaminated (the
	// acceptance-test trigger: a guarded active is suspect by definition).
	Dirty bool
	// Checkpoints is the number of volatile checkpoints established.
	Checkpoints int
}

// Active snapshots a component's live embodiment: the promoted shadow after a
// takeover, the active otherwise (false if there is none).
func (cl *Cluster) Active(c gmdcd.ComponentID) (Replica, bool) {
	return cl.snapshot(c, cl.liveNode)
}

// Shadow snapshots a guarded component's shadow while it is in service, in
// lockstep or promoted (false if the component is unguarded or its upgrade
// was accepted).
func (cl *Cluster) Shadow(c gmdcd.ComponentID) (Replica, bool) {
	return cl.snapshot(c, func(c gmdcd.ComponentID) *cnode {
		if sdw := cl.nodes[cl.asg.Shadow[c]]; sdw != nil && !sdw.failed.Load() {
			return sdw
		}
		return nil
	})
}

func (cl *Cluster) snapshot(c gmdcd.ComponentID, pick func(gmdcd.ComponentID) *cnode) (Replica, bool) {
	ids := cl.targetNodes(c)
	cl.hold(ids)
	defer cl.release(ids)
	n := pick(c)
	if n == nil {
		return Replica{}, false
	}
	return Replica{Promoted: n.promoted, Dirty: n.suspect(), Checkpoints: n.ckptCount}, true
}

// Name returns a node's spec-grammar name: "C3" for component 3's active
// replica, "C3s" for its shadow ("" for an unassigned ID).
func (a Assignment) Name(id msg.ProcID) string {
	c, ok := a.CompOf[id]
	if !ok {
		return ""
	}
	if a.IsShadow[id] {
		return fmt.Sprintf("C%ds", c)
	}
	return fmt.Sprintf("C%d", c)
}

// NodeByName resolves a spec-grammar node name ("C3", "C3s") back to its
// node ID.
func (a Assignment) NodeByName(name string) (msg.ProcID, bool) {
	for _, id := range a.Nodes {
		if a.Name(id) == name {
			return id, true
		}
	}
	return 0, false
}
