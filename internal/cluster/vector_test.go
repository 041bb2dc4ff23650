package cluster

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/synergy-ft/synergy/internal/at"
	"github.com/synergy-ft/synergy/internal/checkpoint"
	"github.com/synergy-ft/synergy/internal/gmdcd"
)

// The node's counter vectors used to be map[gmdcd.ComponentID]uint64. They
// are slot-indexed []uint64 now, on the invariant that zero means absent;
// the map-based lowering and encoder kept below are the reference that makes
// the invariant executable: same checkpoint bytes, same payload bytes.

type refVec = map[gmdcd.ComponentID]uint64

// sparseVec lowers a component-keyed map onto a slot vector.
func sparseVec(comps slots, m refVec) []uint64 {
	vec := make([]uint64, len(comps.ids))
	for c, v := range m {
		vec[comps.of(c)] = v
	}
	return vec
}

// passedATBytes hand-assembles a passed-AT payload from (component, sn)
// entries exactly as given: unsorted, duplicated and foreign entries included.
func passedATBytes(epoch uint64, from gmdcd.ComponentID, entries [][2]uint64) []byte {
	buf := binary.LittleEndian.AppendUint64(nil, epoch)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(from))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(entries)))
	for _, e := range entries {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(e[0]))
		buf = binary.LittleEndian.AppendUint64(buf, e[1])
	}
	return buf
}

func refEncodePassedAT(epoch uint64, from gmdcd.ComponentID, validated refVec) []byte {
	comps := make([]gmdcd.ComponentID, 0, len(validated))
	for c := range validated {
		comps = append(comps, c)
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i] < comps[j] })
	entries := make([][2]uint64, 0, len(comps))
	for _, c := range comps {
		entries = append(entries, [2]uint64{uint64(c), validated[c]})
	}
	return passedATBytes(epoch, from, entries)
}

func refFillCounters(asg Assignment, c *checkpoint.Checkpoint, sent, recv, valid refVec) {
	for d, seq := range sent {
		c.SentTo[asg.Active[d]] = seq
		if sid, ok := asg.Shadow[d]; ok {
			c.SentTo[sid] = seq
		}
	}
	for o, seq := range recv {
		c.RecvFrom[asg.Active[o]] = seq
	}
	for g, v := range valid {
		c.ValidSN[asg.Active[g]] = v
	}
}

// scatteredTopology declares components out of ID order with gaps between
// the IDs, so a slot is neither the ID nor the declaration position.
func scatteredTopology() gmdcd.Topology {
	ids := []gmdcd.ComponentID{40, 7, 300, 2, 19}
	topo := gmdcd.Topology{Test: at.Perfect()}
	for i, id := range ids {
		topo.Components = append(topo.Components, gmdcd.ComponentSpec{
			ID: id, Guarded: i%2 == 0, Peers: []gmdcd.ComponentID{ids[(i+1)%len(ids)]},
			InternalRate: 100, ExternalRate: 50,
		})
	}
	return topo
}

func TestVectorsLowerLikeMaps(t *testing.T) {
	s, err := NewSim(Config{Topology: scatteredTopology(), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if want := []gmdcd.ComponentID{2, 7, 19, 40, 300}; !slices.Equal(s.comps.ids, want) || s.comps.of(19) != 2 || s.comps.of(3) != -1 || s.comps.of(301) != -1 {
		t.Fatalf("slots = %v (19 in slot %d, 3 in slot %d), want %v, 2, -1", s.comps, s.comps.of(19), s.comps.of(3), want)
	}
	rng := rand.New(rand.NewSource(17))
	randVec := func() refVec {
		m := refVec{}
		for _, c := range s.asg.Order {
			if rng.Intn(3) > 0 { // a third of the entries absent; sometimes all
				m[c] = 1 + uint64(rng.Int63n(1<<40))
			}
		}
		return m
	}
	for i := 0; i < 200; i++ {
		n := s.nodes[s.asg.Nodes[rng.Intn(len(s.asg.Nodes))]]
		sent, recv, valid := randVec(), randVec(), randVec()

		want := checkpoint.New(checkpoint.Type1, n.id)
		refFillCounters(s.asg, want, sent, recv, valid)
		got := checkpoint.New(checkpoint.Type1, n.id)
		fillCountersModel(n, got, sparseVec(s.comps, sent), sparseVec(s.comps, recv), sparseVec(s.comps, valid))
		if w, g := checkpoint.Encode(want), checkpoint.Encode(got); !bytes.Equal(w, g) {
			t.Fatalf("case %d: checkpoint bytes differ\n map: %x\nslot: %x", i, w, g)
		}

		epoch, from := rng.Uint64(), s.asg.Order[rng.Intn(len(s.asg.Order))]
		w, g := refEncodePassedAT(epoch, from, valid), encodePassedAT(epoch, from, s.comps, sparseVec(s.comps, valid))
		if !bytes.Equal(w, g) {
			t.Fatalf("case %d: passed-AT bytes differ\n map: %x\nslot: %x", i, w, g)
		}
		back := make([]uint64, len(s.comps.ids))
		if _, _, err := mergePassedAT(g, s.comps, back); err != nil || !bytes.Equal(g, encodePassedAT(epoch, from, s.comps, back)) {
			t.Fatalf("case %d: payload does not round-trip (err %v)", i, err)
		}
	}
}

// The per-message checks are scans over slot vectors: nothing on the
// reception path may allocate one.
func TestVectorChecksDoNotAllocate(t *testing.T) {
	s, err := NewSim(ringConfig(7, 3, 9, 100, 50))
	if err != nil {
		t.Fatal(err)
	}
	n := s.liveNode(2)
	m := Msg{FromComp: 1, ToComp: 2, From: s.asg.Active[1], To: n.id, Influence: make([]uint64, len(s.comps.ids))}
	m.Influence[s.comps.of(1)] = 3
	var sink bool
	if a := testing.AllocsPerRun(100, func() {
		sink = n.dirty() || n.foreignDirty() || n.contaminates(m) || sink
	}); a != 0 {
		t.Fatalf("dirty/foreignDirty/contaminates allocate %.0f times per call, want 0", a)
	}

	// A fresh clean message: everything ingest does apart from sending the
	// ack (whose delivery the runtime queues) must allocate nothing.
	clear(m.Influence)
	ack := testing.AllocsPerRun(100, func() { n.ackTo(m) })
	got := testing.AllocsPerRun(100, func() {
		m.Seq++
		n.ingest(m)
	})
	if n.recvSeq[s.comps.of(1)] != m.Seq {
		t.Fatalf("ingest did not consume the fresh messages: recvSeq %d, sent up to %d", n.recvSeq[s.comps.of(1)], m.Seq)
	}
	if got > ack {
		t.Fatalf("ingest allocates %.0f times per fresh message, its ack alone %.0f: something besides the ack allocates", got, ack)
	}
}
