package gossip

import (
	"math/rand"
	"slices"
	"testing"
)

type nullTransport struct{}

func (nullTransport) Send(NodeID, Packet) {}

func (nullTransport) CopiesOnSend() {} // it keeps nothing

// Simulator transcripts depend on the order pushLocked draws peers in: a
// partial Fisher–Yates shuffle of one index buffer that lives as long as the
// member, stopped once fanout peers are staged. The test replays it draw for
// draw from a twin of the member's generator, with the arrival peer and the
// origin (both excluded) varying; then, with nothing excluded, it requires
// every peer to be drawn about fanout/(N−1) of the time.
func TestPushDrawsPartialShuffle(t *testing.T) {
	members := make([]NodeID, 12)
	for i := range members {
		members[i] = NodeID(i)
	}
	const self = NodeID(4)
	n := New(Config{ID: self, Members: members, Seed: 9, Transport: nullTransport{}})
	twin := rand.New(rand.NewSource(mixSeed(9, uint64(self))))
	idx := make([]int, len(n.peers))
	for i := range idx {
		idx[i] = i
	}
	draw := func(from, origin NodeID) (want []NodeID) {
		for i := 0; i < len(idx) && len(want) < n.fanout; i++ {
			j := i + twin.Intn(len(idx)-i)
			idx[i], idx[j] = idx[j], idx[i]
			if peer := n.peers[idx[i]]; peer != from && peer != origin {
				want = append(want, peer)
			}
		}
		return want
	}
	counts := make(map[NodeID]int)
	const pushes = 11000
	for i := 0; i < 500+pushes; i++ {
		from, origin := self, self // a broadcast: no peer excluded
		if i < 500 {
			from, origin = members[i%12], members[i/12%12]
		}
		var got []NodeID
		s := new(stage)
		n.pushLocked(s, Update{Origin: origin, Seq: uint64(i + 1)}, 2, from)
		for _, e := range s.out {
			got = append(got, e.to)
		}
		if want := draw(from, origin); !slices.Equal(got, want) {
			t.Fatalf("push %d (from %d, origin %d) went to %v, the partial shuffle draws %v", i, from, origin, got, want)
		}
		if i >= 500 {
			for _, peer := range got {
				counts[peer]++
			}
		}
	}
	// Each peer is drawn with probability fanout/11 per push: 3000 of 11000,
	// standard deviation 47.
	for _, peer := range n.peers {
		if c := counts[peer]; c < 3000-250 || c > 3000+250 {
			t.Errorf("peer %d drawn %d times in %d pushes of fanout %d, want 3000 ± 250", peer, c, pushes, n.fanout)
		}
	}
}

func TestHotPathAllocations(t *testing.T) {
	members := make([]NodeID, 10)
	for i := range members {
		members[i] = NodeID(i)
	}
	n := New(Config{ID: 0, Members: members, Seed: 1, Transport: nullTransport{}})
	u := Update{Origin: 5, Seq: 1, Kind: 1, Payload: []byte("vector")}
	push := Packet{Kind: PacketPush, From: 5, TTL: 3, Updates: []Update{u}}
	n.Handle(push)
	if a := testing.AllocsPerRun(100, func() { n.Handle(push) }); a != 0 {
		t.Errorf("Handle of an already-seen push allocates %.0f times, want 0", a)
	}
	n.Handle(Packet{Kind: PacketPush, From: 5, Updates: []Update{{Origin: 5, Seq: 2, Kind: 1}}})
	if a := testing.AllocsPerRun(100, func() { n.Handle(push) }); a != 0 {
		t.Errorf("Handle of a superseded push allocates %.0f times, want 0", a)
	}
	s := new(stage)
	if a := testing.AllocsPerRun(100, func() {
		s.release()
		n.pushLocked(s, u, 3, 5)
	}); a != 0 {
		t.Errorf("pushLocked into a recycled stage allocates %.0f times, want 0", a)
	}
	if len(s.out) != n.fanout || len(s.pushed) != 1 {
		t.Fatalf("pushLocked staged %d envelopes and %d updates, want %d and 1", len(s.out), len(s.pushed), n.fanout)
	}
}
