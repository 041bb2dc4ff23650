package cluster

import (
	"fmt"
	"testing"
	"time"

	"github.com/synergy-ft/synergy/internal/msg"
)

// checkWireIdentity holds every live node's unacknowledged log to the
// identity mintWire gives an emission: an entry names a message its sender
// has already emitted (SN within the node's own stream, ChanSeq within the
// destination slot's channel count, and the payload sequence the receiver
// will apply and acknowledge), and per destination node both SN and ChanSeq
// rise strictly in send order. It returns how many entries it read. The
// membership must be held.
func checkWireIdentity(t *testing.T, cl *Cluster, when string) (entries int) {
	t.Helper()
	slotOf := make(map[msg.ProcID]int)
	for slot, ts := range cl.targets {
		for _, id := range ts {
			slotOf[id] = slot
		}
	}
	for _, id := range cl.asg.Nodes {
		n := cl.nodes[id]
		if n.failed.Load() {
			continue
		}
		type last struct{ sn, chanSeq uint64 }
		prev := make(map[msg.ProcID]last)
		bad := 0
		n.cp.EachUnacked(func(m msg.Message) {
			entries++
			if bad > 0 {
				return
			}
			slot, ok := slotOf[m.To]
			switch {
			case m.From != id || !ok:
				t.Errorf("%s: %v holds an entry from %v to %v, not its own to a known node", when, id, m.From, m.To)
			case m.SN == 0 || m.SN > n.ownSN:
				t.Errorf("%s: %v→%v entry has SN %d outside its stream (1..%d)", when, id, m.To, m.SN, n.ownSN)
			case m.ChanSeq == 0 || m.ChanSeq > n.sentSeq[slot]:
				t.Errorf("%s: %v→%v entry has ChanSeq %d outside its channel (1..%d)", when, id, m.To, m.ChanSeq, n.sentSeq[slot])
			case m.Payload.Seq != m.ChanSeq:
				t.Errorf("%s: %v→%v entry has ChanSeq %d but carries payload %d, which its ack will name", when, id, m.To, m.ChanSeq, m.Payload.Seq)
			case m.SN <= prev[m.To].sn || m.ChanSeq <= prev[m.To].chanSeq:
				t.Errorf("%s: %v→%v entry (SN %d, ChanSeq %d) does not follow (SN %d, ChanSeq %d)",
					when, id, m.To, m.SN, m.ChanSeq, prev[m.To].sn, prev[m.To].chanSeq)
			default:
				prev[m.To] = last{m.SN, m.ChanSeq}
				return
			}
			bad++
		})
	}
	return entries
}

// TestWireIdentity samples the unacknowledged logs of a chaos-free 10-node
// ring every 17 ms, then settles it: every sample must hold mintWire's
// identity, and once settled every message must have been acknowledged, so
// an ack that clears the wrong entry leaves one behind.
func TestWireIdentity(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		s, err := NewSim(ringConfig(7, 3, seed, 120, 60))
		if err != nil {
			t.Fatal(err)
		}
		s.Start()
		entries := 0
		for i := 0; i < 30; i++ {
			s.RunFor(17 * time.Millisecond)
			s.hold(s.asg.Nodes)
			entries += checkWireIdentity(t, s.Cluster, fmt.Sprintf("seed %d sample %d", seed, i))
			s.release(s.asg.Nodes)
			if t.Failed() {
				return
			}
		}
		if entries == 0 {
			t.Fatalf("seed %d: no sample found an unacknowledged message to check", seed)
		}
		t.Logf("seed %d: %d unacknowledged entries checked over 30 samples", seed, entries)
		s.Settle()
		s.hold(s.asg.Nodes)
		for _, id := range s.asg.Nodes {
			if n := s.nodes[id].cp.UnackedLen(); n != 0 {
				t.Errorf("seed %d: %v holds %d unacknowledged messages after settling", seed, id, n)
			}
		}
		s.release(s.asg.Nodes)
		s.Stop()
	}
}
