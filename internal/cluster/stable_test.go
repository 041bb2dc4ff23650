package cluster

import (
	"bytes"
	"testing"
	"time"

	"github.com/synergy-ft/synergy/internal/at"
	"github.com/synergy-ft/synergy/internal/checkpoint"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/storage"
	"github.com/synergy-ft/synergy/internal/tb"
)

// A stable write used to build a checkpoint record and hand it to the store
// to encode: the node's Snapshot, or its LatestVolatile relabelled by the
// checkpointer. The builders below are those paths, kept as the model the
// in-place encoding (stableWrite) must match byte for byte.

// fillCountersModel lowers the present slot-indexed counters onto node keys
// in maps sized up front: the record's side of appendCounters.
func fillCountersModel(n *cnode, c *checkpoint.Checkpoint, sent, recv, valid []uint64) {
	var nSent, nRecv, nValid int
	for slot, replicas := range n.cl.targets {
		if sent[slot] != 0 {
			nSent += len(replicas)
		}
		if recv[slot] != 0 {
			nRecv++
		}
		if valid[slot] != 0 {
			nValid++
		}
	}
	c.SentTo = make(map[msg.ProcID]uint64, nSent)
	c.RecvFrom = make(map[msg.ProcID]uint64, nRecv)
	c.ValidSN = make(map[msg.ProcID]uint64, nValid)
	for slot, replicas := range n.cl.targets { // replicas[0] is the active
		if sent[slot] != 0 {
			for _, id := range replicas {
				c.SentTo[id] = sent[slot]
			}
		}
		if recv[slot] != 0 {
			c.RecvFrom[replicas[0]] = recv[slot]
		}
		if valid[slot] != 0 {
			c.ValidSN[replicas[0]] = valid[slot]
		}
	}
}

// stableRecordModel is the record a stable write's contents were: the
// current state with a copy of the live unacknowledged set, or the volatile
// checkpoint relabelled stable and clean with the set its mark names.
func stableRecordModel(n *cnode, fromVolatile bool) (*checkpoint.Checkpoint, bool) {
	c := &checkpoint.Checkpoint{Kind: checkpoint.Stable, Proc: n.id, TakenAt: n.cl.rt.Now(), Ndc: n.cp.Ndc()}
	if !fromVolatile {
		c.Dirty = n.dirty()
		c.MsgSN = n.ownSN
		c.State = n.state.Clone()
		fillCountersModel(n, c, n.sentSeq, n.recvSeq, n.valid)
		c.Unacked = n.cp.UnackedAt(tb.Mark{})
		return c, true
	}
	s := n.volatileCkpt
	if s == nil {
		return nil, false
	}
	c.MsgSN = s.ownSN
	c.State = s.state.Clone()
	fillCountersModel(n, c, s.sentSeq, s.recvSeq, s.valid)
	c.Unacked = n.cp.UnackedAt(s.unacked)
	return c, true
}

// checkedHost is a node as its checkpointer's host that, on every stable
// write, also builds the model record and compares the bytes.
type checkedHost struct {
	*cnode
	t      *testing.T
	writes *[2]int // current state, volatile copy
}

func (h checkedHost) StableContents(fromVolatile bool) (checkpoint.Encoder, bool) {
	enc, ok := h.cnode.StableContents(fromVolatile)
	rec, wantOK := stableRecordModel(h.cnode, fromVolatile)
	if ok != wantOK {
		h.t.Fatalf("node %d at %v: StableContents(%v) reports %v, the model %v", h.id, h.Now(), fromVolatile, ok, wantOK)
	}
	if !ok {
		return enc, ok
	}
	if got, want := enc.AppendTo(nil), checkpoint.Encode(rec); !bytes.Equal(got, want) {
		h.t.Fatalf("node %d at %v: StableContents(%v) encodes\n %x\nthe model record\n %x", h.id, h.Now(), fromVolatile, got, want)
	}
	if fromVolatile {
		h.writes[1]++
	} else {
		h.writes[0]++
	}
	return enc, ok
}

// withCheckedHosts makes every node built until the test ends check its
// stable writes against the model.
func withCheckedHosts(t *testing.T) *[2]int {
	var writes [2]int
	orig := stableHost
	stableHost = func(n *cnode) tb.Host { return checkedHost{cnode: n, t: t, writes: &writes} }
	t.Cleanup(func() { stableHost = orig })
	return &writes
}

// TestStableWritesEncodeLikeRecords: on the 10- and 100-node rings every
// stable write — the current state, a volatile copy, a replacement — encodes
// exactly the bytes of the record the node used to build for it.
func TestStableWritesEncodeLikeRecords(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		run  time.Duration
	}{
		{"ring-10", Config{Topology: Ring(7, 3, 50, 5, at.Perfect()), Seed: 1}, 3 * time.Second},
		{"ring-100", Config{Topology: Ring(70, 30, 50, 5, at.Perfect()), Seed: 1}, time.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			writes := withCheckedHosts(t)
			s, err := NewSim(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			s.Start()
			s.RunFor(tc.run)
			st := s.Stats()
			if writes[0] == 0 || writes[1] == 0 || st.StableReplaces == 0 {
				t.Fatalf("%d current-state and %d volatile-copy writes, %d replacements: want each", writes[0], writes[1], st.StableReplaces)
			}
			t.Logf("%d current-state and %d volatile-copy writes checked, %d commits, %d replacements", writes[0], writes[1], st.StableCommits, st.StableReplaces)
		})
	}
}

// TestStableWriteAllocatesNothing: once the store's buffers are warm, a
// node's stable write — its contents named and encoded, then committed —
// allocates nothing, from the current state or the volatile copy.
func TestStableWriteAllocatesNothing(t *testing.T) {
	s, err := NewSim(Config{Topology: Ring(7, 3, 50, 5, at.Perfect()), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	s.RunFor(time.Second)
	var n *cnode // one holding both a volatile checkpoint and an unacknowledged message
	for step := 0; n == nil && step < 1000; step++ {
		s.RunFor(time.Millisecond)
		for _, id := range s.asg.Nodes {
			if c := s.nodes[id]; c.volatileCkpt != nil && c.cp.UnackedLen() > 0 {
				n = c
				break
			}
		}
	}
	if n == nil {
		t.Fatal("no node holds both a volatile checkpoint and an unacknowledged message")
	}
	var st storage.Stable
	round := uint64(0)
	for _, fromVolatile := range []bool{false, true} {
		write := func() {
			enc, _ := n.StableContents(fromVolatile)
			if err := st.Begin(enc); err != nil {
				t.Fatal(err)
			}
			round++
			if err := st.Commit(round); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			write()
		}
		if got := testing.AllocsPerRun(100, write); got != 0 {
			t.Fatalf("a stable write (fromVolatile %v) allocates %.1f times", fromVolatile, got)
		}
	}
}
