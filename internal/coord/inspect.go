package coord

import (
	"fmt"

	"github.com/synergy-ft/synergy/internal/checkpoint"
	"github.com/synergy-ft/synergy/internal/invariant"
	"github.com/synergy-ft/synergy/internal/mdcd"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/stats"
	"github.com/synergy-ft/synergy/internal/tb"
)

// The system-wide flags are only written with every node held, so holding
// the first node is enough to read them.

// ActiveC1 returns the process currently embodying the active side of
// component 1 (P1sdw after a software recovery demoted the original active).
func (s *System) ActiveC1() msg.ProcID {
	s.rt.Hold(s.order[0].id)
	defer s.rt.Release(s.order[0].id)
	return s.activeC1()
}

func (s *System) activeC1() msg.ProcID {
	if s.actDemoted {
		return msg.P1Sdw
	}
	return msg.P1Act
}

// Failed reports whether the system reached an unrecoverable condition, with
// the reason.
func (s *System) Failed() (bool, string) {
	s.rt.Hold(s.order[0].id)
	defer s.rt.Release(s.order[0].id)
	return s.failed, s.failReason
}

// Fail marks the system unrecoverable from outside the assembly: the
// runtime's own machinery (a scheduled reboot that cannot land) gave up.
func (s *System) Fail(reason string) {
	s.holdAll()
	defer s.releaseAll()
	s.failf("%s", reason)
}

// NodeDown reports whether the node is currently crashed.
func (s *System) NodeDown(node msg.NodeID) bool {
	n := s.node(msg.ProcID(node))
	if n == nil {
		return false
	}
	s.rt.Hold(n.id)
	defer s.rt.Release(n.id)
	return n.down
}

// Inspect runs fn with a node's process and checkpointer (nil in schemes
// without stable storage) while holding the node.
func (s *System) Inspect(id msg.ProcID, fn func(p *mdcd.Process, cp *tb.Checkpointer)) error {
	n := s.node(id)
	if n == nil {
		return fmt.Errorf("coord: unknown process %v", id)
	}
	s.rt.Hold(n.id)
	defer s.rt.Release(n.id)
	fn(n.proc, n.cp)
	return nil
}

// NetworkStats returns the interconnect's sent and delivered message counts.
func (s *System) NetworkStats() (sent, delivered uint64) { return s.rt.Stats() }

// Recoveries returns three of Metrics' counts — hardware faults, software
// recoveries and re-sent messages — read under one node's hold, without
// copying the rollback samples.
func (s *System) Recoveries() (hwFaults, swRecoveries, resends int) {
	s.rt.Hold(s.order[0].id)
	defer s.rt.Release(s.order[0].id)
	return s.metrics.HWFaults, s.metrics.SWRecoveries, s.metrics.Resends
}

// Metrics returns a copy of the accumulated outcomes, taken with every node
// held.
func (s *System) Metrics() *Metrics {
	s.holdAll()
	defer s.releaseAll()
	out := s.metrics
	out.RollbackDistance = stats.Sample{}
	out.RollbackDistance.Merge(&s.metrics.RollbackDistance)
	out.RollbackByProc = make(map[msg.ProcID]*stats.Sample, len(s.order))
	for _, n := range s.order {
		out.RollbackByProc[n.id] = &stats.Sample{}
		out.RollbackByProc[n.id].Merge(s.metrics.RollbackByProc[n.id])
	}
	return &out
}

// StableLine assembles the current recovery line: the checkpoints a hardware
// fault right now would restore — every live process at the highest round all
// of them have committed; down and demoted nodes sit out, exactly as they do
// during recovery. It fails until the first complete round exists. The line
// carries no live evidence, so Check applies the paper's strict consistency
// rule: the figures count exactly these violations.
func (s *System) StableLine() (invariant.Line, error) { return s.line(false) }

// RecoveryLine is StableLine plus the live protocol counters sampled under
// the same hold, which let Check discount the gaps that the receivers'
// duplicate-discard provably absorbs after a restore (invariant.Evidence).
func (s *System) RecoveryLine() (invariant.Line, error) { return s.line(true) }

func (s *System) line(evidence bool) (invariant.Line, error) {
	s.holdAll()
	defer s.releaseAll()
	// Only the active embodiment of component 1 transmits its stream; P2
	// broadcasts its stream to both component-1 processes.
	active := s.activeC1()
	line := invariant.Line{
		Ckpts: make(map[msg.ProcID]*checkpoint.Checkpoint, len(s.order)),
		Topology: []invariant.Channel{
			{Sender: active, Receiver: msg.P2, StreamKey: msg.Component(active)},
			{Sender: msg.P2, Receiver: msg.P1Act, StreamKey: msg.Component(msg.P2)},
			{Sender: msg.P2, Receiver: msg.P1Sdw, StreamKey: msg.Component(msg.P2)},
		},
	}
	round := s.recoveryRound()
	if round == 0 {
		return line, fmt.Errorf("stable line: no complete checkpoint round yet")
	}
	var members []*node
	for _, n := range s.order {
		if n.cp == nil || n.proc.Failed() || n.down {
			continue
		}
		r := round
		if s.cfg.Scheme == WriteThrough {
			r = n.cp.Stable.LatestRound()
		}
		c, err := n.cp.StableAtRound(r)
		if err != nil {
			return line, fmt.Errorf("stable line: %v: %w", n.id, err)
		}
		line.Ckpts[n.id] = c
		members = append(members, n)
	}
	if evidence {
		line.Live = liveEvidence(members)
	}
	return line, nil
}

// liveEvidence samples the live protocol counters of the line's members.
func liveEvidence(members []*node) *invariant.Evidence {
	ev := &invariant.Evidence{
		Sent:    make(map[msg.ProcID]map[msg.ProcID]uint64, len(members)),
		Recv:    make(map[msg.ProcID]map[msg.ProcID]uint64, len(members)),
		Unacked: make(map[msg.ProcID]map[msg.ProcID][]uint64, len(members)),
	}
	for _, n := range members {
		sent := make(map[msg.ProcID]uint64)
		recv := make(map[msg.ProcID]uint64)
		unacked := make(map[msg.ProcID][]uint64)
		for _, peer := range members {
			if peer == n {
				continue
			}
			sent[peer.id] = n.proc.SentTo(peer.id)
			recv[msg.Component(peer.id)] = n.proc.RecvFrom(peer.id)
		}
		n.cp.EachUnacked(func(m msg.Message) { unacked[m.To] = append(unacked[m.To], m.ChanSeq) })
		ev.Sent[n.id], ev.Recv[n.id], ev.Unacked[n.id] = sent, recv, unacked
	}
	return ev
}

// ReplicasConverged reports whether the active and shadow states are equal;
// valid at quiescent points, where both have applied the same input set.
func (s *System) ReplicasConverged() bool {
	act, sdw := s.nodes[msg.P1Act], s.nodes[msg.P1Sdw]
	if sdw == nil {
		return true
	}
	s.holdAll()
	defer s.releaseAll()
	if act.proc.Failed() || sdw.proc.Failed() {
		return true
	}
	return act.proc.State.Equal(sdw.proc.State)
}
